"""Calibrated equalized odds post-processing (Pleiss et al., NeurIPS 2017).

Keeps the classifier calibrated within each group while equalizing a chosen
cost (generalized false-positive rate, generalized false-negative rate, or
a weighted combination) between groups: the group with the *lower* cost has
a fraction of its scores replaced by its base rate, which raises its cost to
match the other group's.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...serialize import FLOAT, field, params, serializable
from ..dataset import BinaryLabelDataset, GroupSpec

_CONSTRAINTS = ("fnr", "fpr", "weighted")


@serializable(
    params(),
    field("base_rate_priv_", FLOAT),
    field("base_rate_unpriv_", FLOAT),
    field("priv_mix_rate_", FLOAT),
    field("unpriv_mix_rate_", FLOAT),
)
class CalibratedEqOddsPostprocessing:
    """Score-mixing post-processor with a reproducible RNG seed."""

    def __init__(
        self,
        unprivileged_groups: GroupSpec,
        privileged_groups: GroupSpec,
        cost_constraint: str = "weighted",
        seed: Optional[int] = None,
    ):
        if cost_constraint not in _CONSTRAINTS:
            raise ValueError(f"cost_constraint must be one of {_CONSTRAINTS}")
        self.unprivileged_groups = unprivileged_groups
        self.privileged_groups = privileged_groups
        self.cost_constraint = cost_constraint
        self.seed = seed

    # ------------------------------------------------------------------
    def fit(
        self, dataset_true: BinaryLabelDataset, dataset_pred: BinaryLabelDataset
    ) -> "CalibratedEqOddsPostprocessing":
        """Compute per-group mix rates from labeled validation data."""
        if dataset_pred.scores is None:
            raise ValueError("dataset_pred must carry prediction scores")
        dataset_true.validate_compatible(dataset_pred)
        priv = dataset_true.group_mask(self.privileged_groups)
        unpriv = dataset_true.group_mask(self.unprivileged_groups)
        y = dataset_true.favorable_mask().astype(np.float64)
        s = dataset_pred.scores
        w = dataset_true.instance_weights

        self.base_rate_priv_ = _base_rate(y[priv], w[priv])
        self.base_rate_unpriv_ = _base_rate(y[unpriv], w[unpriv])

        priv_cost = self._cost(s[priv], y[priv], w[priv], self.base_rate_priv_)
        unpriv_cost = self._cost(
            s[unpriv], y[unpriv], w[unpriv], self.base_rate_unpriv_
        )
        # cost of the "trivial" predictor that outputs the group base rate
        priv_trivial = self._cost(
            np.full(priv.sum(), self.base_rate_priv_), y[priv], w[priv],
            self.base_rate_priv_,
        )
        unpriv_trivial = self._cost(
            np.full(unpriv.sum(), self.base_rate_unpriv_), y[unpriv], w[unpriv],
            self.base_rate_unpriv_,
        )

        if unpriv_cost > priv_cost:
            # privileged group is "too good": mix it toward its base rate
            denominator = priv_trivial - priv_cost
            rate = (unpriv_cost - priv_cost) / denominator if denominator != 0 else 0.0
            self.priv_mix_rate_ = float(np.clip(rate, 0.0, 1.0))
            self.unpriv_mix_rate_ = 0.0
        else:
            denominator = unpriv_trivial - unpriv_cost
            rate = (priv_cost - unpriv_cost) / denominator if denominator != 0 else 0.0
            self.unpriv_mix_rate_ = float(np.clip(rate, 0.0, 1.0))
            self.priv_mix_rate_ = 0.0
        return self

    def predict(
        self, dataset_pred: BinaryLabelDataset, threshold: float = 0.5
    ) -> BinaryLabelDataset:
        """Mix scores toward group base rates, then threshold."""
        if not hasattr(self, "priv_mix_rate_"):
            raise RuntimeError("CalibratedEqOddsPostprocessing must be fit first")
        if dataset_pred.scores is None:
            raise ValueError("dataset_pred must carry prediction scores")
        rng = np.random.default_rng(self.seed)
        scores = dataset_pred.scores.copy()
        priv = dataset_pred.group_mask(self.privileged_groups)
        unpriv = dataset_pred.group_mask(self.unprivileged_groups)

        priv_flip = rng.random(int(priv.sum())) <= self.priv_mix_rate_
        unpriv_flip = rng.random(int(unpriv.sum())) <= self.unpriv_mix_rate_
        priv_scores = scores[priv]
        priv_scores[priv_flip] = self.base_rate_priv_
        scores[priv] = priv_scores
        unpriv_scores = scores[unpriv]
        unpriv_scores[unpriv_flip] = self.base_rate_unpriv_
        scores[unpriv] = unpriv_scores

        labels = np.where(
            scores >= threshold,
            dataset_pred.favorable_label,
            dataset_pred.unfavorable_label,
        )
        return dataset_pred.with_predictions(labels=labels, scores=scores)

    def fit_predict(
        self,
        dataset_true: BinaryLabelDataset,
        dataset_pred: BinaryLabelDataset,
        threshold: float = 0.5,
    ) -> BinaryLabelDataset:
        return self.fit(dataset_true, dataset_pred).predict(dataset_pred, threshold)

    # ------------------------------------------------------------------
    def _cost(self, scores, y, w, base_rate) -> float:
        """Generalized cost of a score vector under the chosen constraint."""
        gfpr = _generalized_fpr(scores, y, w)
        gfnr = _generalized_fnr(scores, y, w)
        if self.cost_constraint == "fpr":
            return gfpr
        if self.cost_constraint == "fnr":
            return gfnr
        # weighted: Pleiss et al. combine both, weighted by outcome prevalence
        return gfpr * (1.0 - base_rate) + gfnr * base_rate


def _base_rate(y: np.ndarray, w: np.ndarray) -> float:
    total = w.sum()
    return float((y * w).sum() / total) if total > 0 else float("nan")


def _generalized_fpr(scores, y, w) -> float:
    negatives = y == 0.0
    total = w[negatives].sum()
    if total == 0:
        return float("nan")
    return float((scores[negatives] * w[negatives]).sum() / total)


def _generalized_fnr(scores, y, w) -> float:
    positives = y == 1.0
    total = w[positives].sum()
    if total == 0:
        return float("nan")
    return float(((1.0 - scores[positives]) * w[positives]).sum() / total)
