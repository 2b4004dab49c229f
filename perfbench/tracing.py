"""Benchmark-owned layer spans: wrappers around each layer's public calls.

Nothing here changes the program. :func:`install` replaces a method on its
defining class (or a function on its module) with a wrapper that records a
span — name, start, end, parent span, request id — in memory, and
:func:`uninstall` puts every original back. Spans of one thread nest
through a thread-local stack; a call re-entering a span of the same name
(``predict`` calling ``predict_proba``, a subclass ``fit`` calling
``super().fit``) is folded into the outer span, so a count is one per
public call. Timestamps come from ``time.perf_counter``, which is
CLOCK_MONOTONIC on Linux and so comparable across the benchmark and the
server process it launches.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (span id, name, start, end, parent id, request id, extra)
Span = Tuple[int, str, float, float, Optional[int], Optional[int], object]

SWEEP = "sweep"
SERVE = "serve"


class Recorder:
    """In-memory span sink shared by every installed wrapper."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[list]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        frame = self._open(name, None, None)
        try:
            yield frame
        finally:
            self._close(frame)

    def _open(self, name, rid, extra) -> list:
        parent = self.current()
        if rid is None and parent is not None:
            rid = parent[3]
        # [id, name, parent id, request id, extra, start]
        frame = [next(self._ids), name, parent[0] if parent else None, rid, extra, 0.0]
        self._stack().append(frame)
        frame[5] = time.perf_counter()
        return frame

    def _close(self, frame) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append(
            (frame[0], frame[1], frame[5], end, frame[2], frame[3], frame[4])
        )

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name,
        rid_fn: Optional[Callable] = None,
        extra_fn: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Record a span around ``owner.attr``; ``name`` may be a callable
        of the call's arguments. ``after(frame, result, args)`` may annotate
        the finished call."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        recorder = self
        name_of = name if callable(name) else (lambda args, _n=name: _n)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name_of(args)
            parent = recorder.current()
            if parent is not None and parent[1] == span_name:
                return original(*args, **kwargs)
            rid = rid_fn(args) if rid_fn is not None else None
            extra = extra_fn(args) if extra_fn is not None else None
            frame = recorder._open(span_name, rid, extra)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(frame, result, args)
                return result
            finally:
                recorder._close(frame)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": list(self.spans)}, handle)


def load_spans(path: str) -> List[Span]:
    with open(path) as handle:
        return [tuple(span) for span in json.load(handle)["spans"]]


# ----------------------------------------------------------------------
# which calls are wrapped, per layer
# ----------------------------------------------------------------------
def install(recorder: Recorder, side: str) -> None:
    """Wrap the public entry points of every layer a workload runs.

    ``side`` is :data:`SWEEP` (the benchmark process: preparation,
    learning, evaluation, registry publish) or :data:`SERVE` (the server
    process: registry load, HTTP service, batching, scoring, monitoring —
    plus the preparation layers scoring replays).
    """
    import repro.datasets
    from repro.core import experiment, featurization, interventions, missing_values
    from repro.core.components import MissingValueHandler, PostProcessor, PreProcessor
    from repro.core.results import ResultsStore
    from repro.fairness.metrics.classification_metric import ClassificationMetric
    from repro.learn import linear, model_selection, tree
    from repro.serve import batching, monitor, registry, scoring, service

    wrap = recorder.wrap
    wrap(repro.datasets, "load_dataset", "datasets.load")

    for cls in _subclasses(missing_values, MissingValueHandler):
        for method in ("fit", "handle_missing"):
            if _concrete(cls, method):
                wrap(cls, method, f"core.missing_values.{method}")
    wrap(featurization.Featurizer, "transform", "core.featurization.transform")

    for cls in _subclasses(interventions, (PreProcessor, PostProcessor)):
        for method in ("fit", "transform_train", "transform_eval", "apply"):
            if not _concrete(cls, method):
                continue
            if method == "fit":
                # the two stages share NoIntervention; a post-processor's
                # fit takes five arguments (truth, predictions, groups, seed)
                name = lambda args: (
                    "core.interventions.post" if len(args) == 6 else "core.interventions.pre"
                )
            elif method == "apply":
                name = "core.interventions.post"
            else:
                name = "core.interventions.pre"
            wrap(cls, method, name)

    wrap(tree.DecisionTreeClassifier, "fit", "learn.tree.fit")
    wrap(tree.DecisionTreeClassifier, "predict", "learn.tree.predict")
    wrap(tree.DecisionTreeClassifier, "predict_proba", "learn.tree.predict")
    wrap(linear.SGDClassifier, "fit", "learn.linear.fit")
    wrap(linear.LogisticRegressionGD, "fit", "learn.linear.fit")

    if side == SWEEP:
        for stage in ("prepare_splits", "prepare", "train_candidates", "evaluate"):
            wrap(experiment.Experiment, stage, f"core.experiment.{stage}")
        wrap(
            model_selection.GridSearchCV,
            "fit",
            "learn.model_selection.search",
            extra_fn=lambda args: len(model_selection.ParameterGrid(args[0].param_grid))
            * int(args[0].cv),
        )
        wrap(ClassificationMetric, "all_metrics", "fairness.metrics.all_metrics")
        wrap(ResultsStore, "extend", "core.results.extend")
        wrap(registry.ModelRegistry, "publish", "serve.registry.publish")
        return

    wrap(registry.ModelRegistry, "load_pipeline", "serve.registry.load_pipeline")
    wrap(
        service.ScoringService,
        "score",
        "serve.service.score",
        rid_fn=lambda args: args[1].get("_rid") if isinstance(args[1], dict) else None,
    )
    wrap(service.ScoringService, "metrics", "serve.service.metrics")
    wrap(batching.MicroBatcher, "score", "serve.batching.score")
    # a future carries the id of the request that submitted it, so the
    # dispatcher's batch span can link to every request it served
    wrap(
        batching.MicroBatcher,
        "submit",
        "serve.batching.submit",
        after=lambda frame, future, args: setattr(future, "bench_rid", frame[3]),
    )
    wrap(
        batching.MicroBatcher,
        "_dispatch",
        "serve.batching.batch",
        extra_fn=lambda args: [getattr(r.future, "bench_rid", None) for r in args[1]],
    )
    wrap(scoring.ScoringEngine, "score_record", "serve.scoring.score_record")
    wrap(
        scoring.ScoringEngine,
        "score_frame",
        "serve.scoring.score_frame",
        extra_fn=lambda args: int(args[1].num_rows),
    )
    wrap(monitor.FairnessMonitor, "observe", "serve.monitor.observe")
    wrap(monitor.FairnessMonitor, "observe_batch", "serve.monitor.observe_batch")


def _subclasses(module, base) -> list:
    """Every class in ``module`` derived from ``base`` (bases included once)."""
    found = [c for c in vars(module).values() if isinstance(c, type) and issubclass(c, base)]
    return list(dict.fromkeys(found))


def _concrete(cls, method: str) -> bool:
    function = cls.__dict__.get(method)
    return function is not None and not getattr(function, "__isabstractmethod__", False)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
class SpanIndex:
    """Spans with their children, self times and root ancestors."""

    def __init__(self, spans: Sequence[Span]):
        self.spans = list(spans)
        self.by_id: Dict[int, Span] = {s[0]: s for s in self.spans}
        self.child_time: Dict[int, float] = {}
        for span in self.spans:
            parent = span[4]
            if parent is not None:
                self.child_time[parent] = self.child_time.get(parent, 0.0) + (
                    span[3] - span[2]
                )

    def duration(self, span: Span) -> float:
        return span[3] - span[2]

    def self_time(self, span: Span) -> float:
        # children run on the parent's thread and nest inside it, so their
        # durations never overlap and their sum is the covered interval
        return self.duration(span) - self.child_time.get(span[0], 0.0)

    def root(self, span: Span) -> Span:
        while span[4] is not None and span[4] in self.by_id:
            span = self.by_id[span[4]]
        return span

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s[1] == name]
