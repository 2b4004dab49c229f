"""Sliding-window runtime monitoring of accuracy and group fairness.

A deployed pipeline drifts: incoming traffic shifts, and a model that was
fair on its validation split can violate the four-fifths rule in
production. :class:`FairnessMonitor` keeps the last *N* scored records and
recomputes, over that window, the same group metrics the experiment layer
reports, with the experiment layer's own code: disparate impact and
statistical parity from :class:`BinaryLabelDatasetMetric` base rates, and —
whenever ground-truth labels arrive — accuracy and the equal-opportunity
and average-odds gaps from the weighted confusion tables of
:meth:`BinaryLabelDatasetMetric.confusion_table` and ``GROUP_CONTRASTS``.
Selection rate and mean score ride along as accuracy proxies. Configurable
thresholds turn a snapshot into :class:`Alert` records the serving layer
exposes on its ``/metrics`` route.

The window lives in preallocated NumPy ring buffers (one per observed
field, plus validity masks for the optional score/truth fields). Every
batch write — ``observe_batch`` and ``from_states`` — goes through one
append of at most two slice copies per buffer under the lock; ``observe``
stores its single row with scalar writes, which per call is several times
cheaper than the array append. ``state`` and ``snapshot`` read the window
through one oldest-first copy, so no Python-level loop ever holds the lock
and ``/metrics`` stays cheap while scoring traffic hammers
``observe_batch``.

Monitors are also *mergeable*: :meth:`FairnessMonitor.state` captures the
window (oldest record first) plus configuration as a JSON-serializable
dict, and :meth:`FairnessMonitor.from_states` rebuilds one monitor from
many such states. Merging is defined as observing the states' window
contents as one concatenated stream, in the order given — the contract the
multi-worker serving fleet relies on to combine per-worker windows into a
single fleet-wide fairness view.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..fairness import BinaryLabelDataset
from ..fairness.metrics import BinaryLabelDatasetMetric
from ..fairness.metrics.classification_metric import GROUP_CONTRASTS

# metric -> (lower bound, upper bound); None disables a side. The defaults
# encode the four-fifths rule on disparate impact and a ±0.1 band on the
# equal-opportunity gap (the bounds the paper's intervention studies target).
DEFAULT_THRESHOLDS: Dict[str, Tuple[Optional[float], Optional[float]]] = {
    "disparate_impact": (0.8, 1.25),
    "equal_opportunity_difference": (-0.1, 0.1),
    "statistical_parity_difference": (-0.1, 0.1),
}

# the state's window fields, in ring-buffer order, with their dtypes
_FIELDS = (
    ("groups", np.float64),
    ("predictions", np.float64),
    ("scores", np.float64),
    ("score_valid", bool),
    ("truths", np.float64),
    ("truth_valid", bool),
)


@dataclass(frozen=True)
class Alert:
    """One threshold violation over the current window."""

    metric: str
    value: float
    lower: Optional[float]
    upper: Optional[float]
    window: int

    def describe(self) -> str:
        bounds = f"[{self.lower}, {self.upper}]"
        return (
            f"{self.metric}={self.value:.4f} outside {bounds} "
            f"over the last {self.window} records"
        )


class FairnessMonitor:
    """Thread-safe sliding window over scored records."""

    def __init__(
        self,
        protected_attribute: str,
        window_size: int = 1000,
        thresholds: Optional[Dict[str, Tuple[Optional[float], Optional[float]]]] = None,
        min_observations: int = 50,
        favorable_label: float = 1.0,
        unfavorable_label: float = 0.0,
    ):
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        self.protected_attribute = protected_attribute
        self.window_size = int(window_size)
        self.thresholds = dict(
            DEFAULT_THRESHOLDS if thresholds is None else thresholds
        )
        self.min_observations = int(min_observations)
        self.favorable_label = float(favorable_label)
        self.unfavorable_label = float(unfavorable_label)
        # one ring buffer per _FIELDS entry; slots past _count are never read
        self._columns = tuple(np.empty(self.window_size, dtype) for _, dtype in _FIELDS)
        (
            self._groups,
            self._predictions,
            self._scores,
            self._score_valid,
            self._truths,
            self._truth_valid,
        ) = self._columns
        self._pos = 0  # guarded-by: _lock (next write slot)
        self._count = 0  # guarded-by: _lock (filled slots, <= window_size)
        self._total_observed = 0  # guarded-by: _lock
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # feeding
    # ------------------------------------------------------------------
    def observe(
        self,
        group: float,
        prediction: float,
        score: Optional[float] = None,
        true_label: Optional[float] = None,
    ) -> None:
        """Record one scored instance (group = protected value, 1.0/0.0)."""
        group = float(group)
        prediction = float(prediction)
        score_value = np.nan if score is None else float(score)
        truth_value = np.nan if true_label is None else float(true_label)
        truth_known = truth_value == truth_value  # NaN truth means unlabeled
        with self._lock:
            p = self._pos
            self._groups[p] = group
            self._predictions[p] = prediction
            self._scores[p] = score_value
            self._score_valid[p] = score is not None
            self._truths[p] = truth_value
            self._truth_valid[p] = truth_known
            self._pos = (p + 1) % self.window_size
            self._count = min(self.window_size, self._count + 1)
            self._total_observed += 1

    def observe_batch(
        self,
        groups: np.ndarray,
        predictions: np.ndarray,
        scores: Optional[np.ndarray] = None,
        true_labels: Optional[np.ndarray] = None,
    ) -> None:
        """Record a scored batch; a NaN in ``true_labels`` means *unlabeled*.

        All four inputs are validated and raveled **before** the window is
        touched: a shape or length mismatch raises :class:`ValueError` and
        leaves the window exactly as it was (no partial ingestion).
        """
        groups = np.asarray(groups, dtype=np.float64).ravel()
        predictions = np.asarray(predictions, dtype=np.float64).ravel()
        total = len(groups)
        if len(predictions) != total:
            raise ValueError(
                f"predictions length {len(predictions)} != groups length {total}"
            )
        if scores is not None:
            scores = np.asarray(scores, dtype=np.float64).ravel()
            if len(scores) != total:
                raise ValueError(
                    f"scores length {len(scores)} != groups length {total}"
                )
        if true_labels is not None:
            true_labels = np.asarray(true_labels, dtype=np.float64).ravel()
            if len(true_labels) != total:
                raise ValueError(
                    f"true_labels length {len(true_labels)} != groups length {total}"
                )
        self._append(
            (
                groups,
                predictions,
                np.nan if scores is None else scores,
                scores is not None,
                np.nan if true_labels is None else true_labels,
                False if true_labels is None else true_labels == true_labels,
            ),
            total,
            total,
        )

    def _append(self, columns: Sequence[Any], k: int, total: int) -> None:
        """Append ``k`` rows to the ring and count ``total`` observations.

        ``columns`` follow ``_FIELDS``; each is a length-``k`` array or a
        scalar filling every row. Only the last ``min(k, window_size)``
        rows are written (earlier ones would be evicted at once), in at
        most two slice writes per ring buffer.
        """
        n = self.window_size
        start = max(0, k - n)
        k -= start
        with self._lock:
            p = self._pos
            first = min(k, n - p)
            rest = k - first
            for buffer, values in zip(self._columns, columns):
                array = isinstance(values, np.ndarray)
                buffer[p : p + first] = values[start : start + first] if array else values
                if rest:
                    buffer[:rest] = values[start + first :] if array else values
            self._pos = (p + k) % n
            self._count = min(n, self._count + k)
            self._total_observed += total

    def _window(self) -> Tuple[int, int, List[np.ndarray]]:
        """``(count, total observed, columns)``: a copy of the window.

        Columns follow ``_FIELDS`` and run oldest record first, which
        reproduces the exact float summation order of the original deque
        implementation, keeping metrics bit-identical.
        """
        with self._lock:
            count, total, p = self._count, self._total_observed, self._pos
            if count < self.window_size:
                columns = [buffer[:count].copy() for buffer in self._columns]
            else:
                columns = [np.concatenate([b[p:], b[:p]]) for b in self._columns]
        return count, total, columns

    # ------------------------------------------------------------------
    # state + merge
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """The monitor's window and configuration as plain Python values.

        The window arrays come out oldest record first — the exact order a
        fresh monitor must re-observe them in to reproduce this one — and
        every value is JSON-serializable (missing scores/labels are carried
        as explicit validity masks, not ``NaN`` sentinels), so states can
        cross process boundaries over the fleet's control sockets.
        """
        _, total, columns = self._window()
        window = dict(zip((name for name, _ in _FIELDS), columns))
        # NaN only ever appears in masked-out slots; zero them so the state
        # survives strict JSON encoders unchanged
        window["scores"] = np.where(window["score_valid"], window["scores"], 0.0)
        window["truths"] = np.where(window["truth_valid"], window["truths"], 0.0)
        return {
            "protected_attribute": self.protected_attribute,
            "window_size": self.window_size,
            "min_observations": self.min_observations,
            "favorable_label": self.favorable_label,
            "unfavorable_label": self.unfavorable_label,
            "thresholds": {
                metric: [lower, upper]
                for metric, (lower, upper) in self.thresholds.items()
            },
            "total_observed": int(total),
            **{name: values.tolist() for name, values in window.items()},
        }

    @classmethod
    def from_states(
        cls,
        states: Iterable[Dict[str, Any]],
        window_size: Optional[int] = None,
    ) -> "FairnessMonitor":
        """One monitor equivalent to observing the states' windows in order.

        Every state must share the first one's protected attribute and
        labels; configuration (thresholds, ``min_observations``) comes from
        the first state. ``window_size`` defaults to the total number of
        windowed records across all states so a fleet-wide merge drops
        nothing; pass an explicit size to keep the per-worker semantics
        (last *N* of the concatenated stream). ``total_observed`` is the
        sum of the states' counts, evictions included.
        """
        states = list(states)
        if not states:
            raise ValueError("from_states needs at least one state")
        first = states[0]
        for state in states:
            if state["protected_attribute"] != first["protected_attribute"]:
                raise ValueError(
                    "cannot merge monitors over different protected "
                    f"attributes ({state['protected_attribute']!r} != "
                    f"{first['protected_attribute']!r})"
                )
            if (
                state["favorable_label"] != first["favorable_label"]
                or state["unfavorable_label"] != first["unfavorable_label"]
            ):
                raise ValueError("cannot merge monitors with different labels")
        window = {
            name: np.concatenate([np.asarray(s[name], dtype=dtype) for s in states])
            for name, dtype in _FIELDS
        }
        for name, valid in (("scores", "score_valid"), ("truths", "truth_valid")):
            window[name] = np.where(window[valid], window[name], np.nan)
        k = len(window["groups"])
        monitor = cls(
            protected_attribute=first["protected_attribute"],
            window_size=max(1, k) if window_size is None else window_size,
            thresholds={
                metric: (bounds[0], bounds[1])
                for metric, bounds in first["thresholds"].items()
            },
            min_observations=first["min_observations"],
            favorable_label=first["favorable_label"],
            unfavorable_label=first["unfavorable_label"],
        )
        total = sum(int(state["total_observed"]) for state in states)
        monitor._append([window[name] for name, _ in _FIELDS], k, total)
        return monitor

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Windowed metrics, via the experiment layer's own metric classes."""
        count, total, columns = self._window()
        groups, predictions, scores, score_valid, truths, truth_valid = columns
        out: Dict[str, float] = {
            "window": float(count),
            "total_observed": float(total),
        }
        if not count:
            return out

        predicted = self._metric(predictions, groups)
        out["selection_rate"] = predicted.base_rate()
        if score_valid.any():
            out["mean_score"] = float(np.mean(scores[score_valid]))
        if _both_groups(groups):
            out["disparate_impact"] = predicted.disparate_impact()
            out["statistical_parity_difference"] = (
                predicted.statistical_parity_difference()
            )

        out["labeled_fraction"] = float(truth_valid.mean())
        if truth_valid.any():
            labeled = predictions[truth_valid]
            sub_groups = groups[truth_valid]
            truth = self._metric(truths[truth_valid], sub_groups)
            out["accuracy"] = truth.confusion_table(labeled)[1]["accuracy"]
            if _both_groups(sub_groups):
                unprivileged, privileged = (
                    truth.confusion_table(labeled, side)[1] for side in (False, True)
                )
                for name in ("equal_opportunity_difference", "average_odds_difference"):
                    out[name] = GROUP_CONTRASTS[name](unprivileged, privileged)
        return out

    def check(self, snapshot: Optional[Dict[str, float]] = None) -> List[Alert]:
        """Threshold violations over the current window (empty = healthy).

        Pass a precomputed :meth:`snapshot` to avoid rebuilding the window
        metrics (the /metrics route reports both from one snapshot).
        """
        snap = self.snapshot() if snapshot is None else snapshot
        window = int(snap.get("window", 0))
        if window < self.min_observations:
            return []
        alerts: List[Alert] = []
        for metric, (lower, upper) in self.thresholds.items():
            value = snap.get(metric)
            if value is None or np.isnan(value):
                continue
            if (lower is not None and value < lower) or (
                upper is not None and value > upper
            ):
                alerts.append(
                    Alert(
                        metric=metric,
                        value=float(value),
                        lower=lower,
                        upper=upper,
                        window=window,
                    )
                )
        return alerts

    def reset(self) -> None:
        with self._lock:
            self._pos = 0
            self._count = 0

    # ------------------------------------------------------------------
    def _metric(
        self, labels: np.ndarray, groups: np.ndarray
    ) -> BinaryLabelDatasetMetric:
        """Window columns as a (feature-less) dataset's metric, with the
        protected value 1.0 privileged and 0.0 unprivileged."""
        dataset = BinaryLabelDataset(
            features=np.zeros((len(labels), 0)),
            labels=labels,
            protected_attributes=groups.reshape(-1, 1),
            protected_attribute_names=[self.protected_attribute],
            favorable_label=self.favorable_label,
            unfavorable_label=self.unfavorable_label,
        )
        return BinaryLabelDatasetMetric(
            dataset,
            unprivileged_groups=[{self.protected_attribute: 0.0}],
            privileged_groups=[{self.protected_attribute: 1.0}],
        )


def _both_groups(groups: np.ndarray) -> bool:
    return bool((groups == 1.0).any() and (groups == 0.0).any())
