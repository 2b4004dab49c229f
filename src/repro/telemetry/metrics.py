"""Process-local metrics: counters, gauges, and fixed-bucket histograms.

The instruments live in a :class:`MetricsRegistry`: the process-global
one behind :func:`repro.telemetry.counter` and friends, or one owned by
an object such as a scoring service. They are deliberately simple — a
counter is one attribute add, a gauge one store — so leaving metrics
enabled by default costs nanoseconds per event. Only histograms take a
lock (their observation updates three fields that must stay mutually
consistent); every lock in the process registry is re-armed after
``fork()`` so a child process never inherits a lock a coordinator thread
happened to hold mid-increment.

Pure functions turn registry snapshots into transportable/renderable
form: :func:`merge_states` sums the state dicts of many registries (the
serving fleet's per-worker ones) into one, :func:`bucket_quantile` reads
a quantile off a histogram state, and :func:`render_prometheus` emits
the Prometheus text exposition format (``# TYPE`` headers, cumulative
``_bucket{le=...}`` counts).
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: request-latency style bounds, in milliseconds
LATENCY_BOUNDS_MS: Tuple[float, ...] = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)
#: batch-size style bounds (counts)
SIZE_BOUNDS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class Counter:
    """A monotonically increasing count. ``inc`` is a single attribute
    add with no lock, which keeps it safe to call around ``fork()``. Under
    the GIL no increment is lost (a stress test pins this); a
    free-threaded build could lose one, never deadlock."""

    __slots__ = ("_value",)

    def __init__(self):
        self._value = 0

    def inc(self, n: int = 1) -> None:
        self._value += n

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value, set explicitly."""

    __slots__ = ("_value",)

    def __init__(self):
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bound bucket histogram (non-cumulative internal counts).

    ``bounds`` are the inclusive upper edges of the first ``len(bounds)``
    buckets; one overflow bucket catches everything above the last bound.
    """

    __slots__ = ("bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(self, bounds: Sequence[float]):
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"bounds must be strictly increasing, got {bounds!r}")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # guarded-by: _lock
        self._sum = 0.0  # guarded-by: _lock
        self._count = 0  # guarded-by: _lock
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def state(self) -> dict:
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }


class MetricsRegistry:
    """Name → instrument map (one per process, or one per owner)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}  # guarded-by: _lock
        self._gauges: Dict[str, Gauge] = {}  # guarded-by: _lock
        self._histograms: Dict[str, Histogram] = {}  # guarded-by: _lock

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter())
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge())
        return instrument

    def histogram(
        self, name: str, bounds: Sequence[float] = LATENCY_BOUNDS_MS
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(name, Histogram(bounds))
        return instrument

    def state(self) -> dict:
        """A JSON-safe snapshot of every instrument in this registry."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "gauges": {name: g.value() for name, g in sorted(gauges.items())},
            "histograms": {
                name: h.state() for name, h in sorted(histograms.items())
            },
        }

    def rearm_locks(self) -> None:
        """Replace every lock with a fresh one (called after ``fork``)."""
        self._lock = threading.Lock()
        for histogram in self._histograms.values():
            histogram._lock = threading.Lock()


# ----------------------------------------------------------------------
# pure state transforms
# ----------------------------------------------------------------------
def merge_states(states: Iterable[dict]) -> dict:
    """Sum many registry snapshots (one per registry) into one.

    Counters and gauges add; histograms add bucket-wise when their bounds
    agree (they always do for same-name instruments created by this
    codebase — bounds are fixed at the call site). A histogram whose
    bounds disagree with the first-seen ones is skipped rather than
    corrupting the merged distribution.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, dict] = {}
    for state in states:
        if not isinstance(state, dict):
            continue
        for name, value in (state.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in (state.get("gauges") or {}).items():
            gauges[name] = gauges.get(name, 0.0) + value
        for name, hist in (state.get("histograms") or {}).items():
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = {
                    "bounds": list(hist["bounds"]),
                    "counts": list(hist["counts"]),
                    "sum": hist["sum"],
                    "count": hist["count"],
                }
            elif merged["bounds"] == list(hist["bounds"]):
                merged["counts"] = [
                    a + b for a, b in zip(merged["counts"], hist["counts"])
                ]
                merged["sum"] += hist["sum"]
                merged["count"] += hist["count"]
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }


def bucket_quantile(hist: dict, q: float) -> Optional[float]:
    """Upper bound of the bucket holding the ``q``-quantile of a histogram
    state, or ``None`` when that bucket is the overflow one.

    The quantile is the observation a sorted list would hold at index
    ``round(q * (count - 1))``, so ``q=1.0`` reads the maximum's bucket.
    """
    target = int(round(q * (hist["count"] - 1))) + 1
    cumulative = 0
    for bound, count in zip(hist["bounds"], hist["counts"]):
        cumulative += count
        if cumulative >= target:
            return float(bound)
    return None


_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str, prefix: str) -> str:
    sanitized = _NAME_RE.sub("_", prefix + name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_value(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value)) if value == value else "NaN"


def render_prometheus(state: dict, prefix: str = "repro_") -> str:
    """Render a registry snapshot in the Prometheus text exposition format.

    Bucket counts come out cumulative (``le`` semantics) with the
    mandatory ``+Inf`` bucket, per the format spec.
    """
    lines: List[str] = []
    for name, value in (state.get("counters") or {}).items():
        metric = _prom_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(value)}")
    for name, value in (state.get("gauges") or {}).items():
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(value)}")
    for name, hist in (state.get("histograms") or {}).items():
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(hist["bounds"], hist["counts"]):
            cumulative += count
            lines.append(
                f'{metric}_bucket{{le="{_prom_value(float(bound))}"}} {cumulative}'
            )
        cumulative += hist["counts"][len(hist["bounds"])]
        lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{metric}_sum {repr(float(hist['sum']))}")
        lines.append(f"{metric}_count {int(hist['count'])}")
    return "\n".join(lines) + "\n"


# shared no-op instruments handed out when telemetry is disabled: same
# interface, no state, no locks
class NoopCounter:
    __slots__ = ()
    value = 0

    def inc(self, n: int = 1) -> None:
        pass


class NoopGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def value(self) -> float:
        return 0.0


class NoopHistogram:
    __slots__ = ()
    bounds = ()

    def observe(self, value: float) -> None:
        pass

    def state(self) -> dict:
        return {"bounds": [], "counts": [0], "sum": 0.0, "count": 0}


NOOP_COUNTER = NoopCounter()
NOOP_GAUGE = NoopGauge()
NOOP_HISTOGRAM = NoopHistogram()
