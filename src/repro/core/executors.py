"""Executor backends: *how* an execution plan runs.

The plan layer (:mod:`repro.core.plan`) describes what to run; the
executors here decide scheduling and reuse:

* :class:`SerialExecutor` — in-process, one run at a time;
* :class:`ParallelExecutor` — fans preparation groups out over the
  fork-based group runner in :mod:`repro.parallel` (shared with
  ``GridSearchCV(n_jobs=...)``; fork means grid factories need not be
  picklable).

Every backend runs a preparation group through :func:`iter_config_group`,
which shares three cache levels keyed by the plan's fingerprints:

* a **preparation cache**: every combination with the same ``prep_key``
  (seed, resampler, missing-value handler, scaler) reuses one
  :class:`~repro.core.experiment.FeaturizedSplits` instead of re-running
  split → resample → impute → featurize;
* a **pre-processing cache** on top of it: combinations that also share
  the fairness pre-processor reuse the fitted/applied
  :class:`~repro.core.experiment.PreparedData`, so e.g. a DI-remover
  repair is computed once per (seed, repair level) and shared by every
  learner;
* a **fitted-learner cache** on top of that: combinations that also share
  the learner — and so differ only in the post-processor — reuse one
  :class:`~repro.core.experiment.FittedLearner` record per learner (the
  fitted model, its ``best_params``, its raw validation labels and scores,
  its train metrics), so e.g. the no-intervention, reject-option and
  calibrated-equalized-odds runs of a learner train it once. Each run
  still fits and applies its own post-processor clone. A learner is
  fitted on all of the group's pre-processors at once, by the first
  config that trains it, so every other pre-processor's fit waits in the
  cache for its own first config. The group's consumers of each key are
  counted up front: an entry is stored only while a later config in the
  group will use it and is dropped after its last consumer.

Results are identical to :meth:`Experiment.run` of each plan cell (see
:func:`build_experiment`) because every stage is deterministic in
(inputs, seed) and never mutates shared artifacts.

With a :class:`~repro.core.results.ResultsStore`, completed groups are
persisted in batches (one open/write per group) and ``resume=True`` skips
any configuration whose ``run_key`` is already stored.
"""

from __future__ import annotations

import abc
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import parallel, telemetry
from ..datasets import DatasetSpec
from ..frame import DataFrame
from .experiment import Experiment, FeaturizedSplits, FittedLearner
from .plan import GridSpec, RunConfig, route_intervention
from .results import ResultsStore, RunResult

# progress callback: (completed_count, total, latest_result)
ProgressCallback = Callable[[int, int, RunResult], None]


@dataclass
class ExecutionPlan:
    """A grid bound to its data: everything an executor needs to run."""

    frame: DataFrame
    spec: DatasetSpec
    grid: GridSpec
    configs: List[RunConfig]
    protected_attribute: Optional[str] = None
    dataset_fingerprint: Optional[str] = None

    @classmethod
    def for_grid(
        cls,
        frame: DataFrame,
        spec: DatasetSpec,
        grid: GridSpec,
        protected_attribute: Optional[str] = None,
        dataset_fingerprint: Optional[str] = None,
    ) -> "ExecutionPlan":
        # fold the concrete row count into the run fingerprints so resume
        # never matches results computed on a size-truncated variant
        if dataset_fingerprint is None:
            dataset_fingerprint = f"{spec.name}|rows={frame.num_rows}"
        configs = grid.expand(
            spec.name, protected_attribute, dataset_fingerprint=dataset_fingerprint
        )
        return cls(
            frame=frame,
            spec=spec,
            grid=grid,
            configs=configs,
            protected_attribute=protected_attribute,
            dataset_fingerprint=dataset_fingerprint,
        )


def build_experiment(plan: ExecutionPlan, config: RunConfig) -> Experiment:
    """Materialize the experiment for one plan cell from fresh components."""
    grid = plan.grid
    intervention = grid.interventions[config.intervention_index]()
    pre, post = route_intervention(intervention)
    return Experiment(
        frame=plan.frame,
        spec=plan.spec,
        random_seed=config.random_seed,
        learner=grid.learners[config.learner_index](),
        missing_value_handler=grid.missing_value_handlers[config.handler_index](),
        numeric_attribute_scaler=grid.scalers[config.scaler_index](),
        pre_processor=pre,
        post_processor=post,
        protected_attribute=plan.protected_attribute,
    )


class FittedLearnerCache:
    """The fitted-learner level of one group's shared-preparation cache.

    Keyed on the ``pre_processor`` and ``learners`` fingerprints that
    ``run_key`` is built from. Each key's consumers in the group are
    counted up front; :meth:`put` stores an entry only if a config still
    to come will :meth:`take` it, and the last :meth:`take` drops it, so
    peak memory grows by at most one fitted learner per live key.
    """

    def __init__(self, group: Sequence[RunConfig]):
        self._pending = Counter(self._key(config) for config in group)
        self._entries: Dict[Tuple[str, str], Tuple[FittedLearner, ...]] = {}
        # the first config of every key not fitted yet, in group order
        self._unfitted: Dict[Tuple[str, str], RunConfig] = {}
        for config in group:
            self._unfitted.setdefault(self._key(config), config)

    @staticmethod
    def _key(config: RunConfig) -> Tuple[str, str]:
        return config.components["pre_processor"], config.components["learners"]

    def take(self, config: RunConfig) -> Optional[Tuple[FittedLearner, ...]]:
        """Count ``config`` as consumed; its cached fit, if any."""
        key = self._key(config)
        self._pending[key] -= 1
        if self._pending[key] > 0:
            return self._entries.get(key)
        return self._entries.pop(key, None)

    def peers(self, config: RunConfig) -> List[RunConfig]:
        """One config of every other pre-processor whose fit of
        ``config``'s learners is still to be made."""
        pre, learners = self._key(config)
        return [
            first
            for (other, other_learners), first in self._unfitted.items()
            if other_learners == learners and other != pre
        ]

    def put(self, config: RunConfig, fitted: Tuple[FittedLearner, ...]) -> None:
        """Keep ``fitted`` for the configs still to come with this key."""
        key = self._key(config)
        self._unfitted.pop(key, None)
        if self._pending[key] > 0:
            self._entries[key] = fitted

    def __len__(self) -> int:
        return len(self._entries)


def iter_config_group(plan: ExecutionPlan, group: Sequence[RunConfig]):
    """Execute one preparation group, yielding each result as it completes.

    All configs in ``group`` must share a ``prep_key`` (enforced by
    :func:`plan_groups`); the featurized splits are computed once, each
    distinct pre-processor is fitted/applied once, and each distinct
    (pre-processor, learners) pair is fitted once. The first config of a
    learners key to train fits those learners on every distinct
    pre-processor of the group that uses them, in one ``train_candidates``
    call (the peers' preparations are made just before it): an untuned
    logistic regression trains them all in one stacked SGD fit.
    """
    splits: Optional[FeaturizedSplits] = None
    prepared_cache: Dict[str, object] = {}
    fitted_cache = FittedLearnerCache(group)

    def prepare(config: RunConfig, experiment: Experiment):
        pre = config.components["pre_processor"]
        if pre not in prepared_cache:
            with telemetry.span(
                "stage.prepare",
                prep_key=config.prep_key,
                run_key=config.run_key,
            ):
                prepared_cache[pre] = experiment.prepare(splits)
        return prepared_cache[pre]

    for config in group:
        experiment = build_experiment(plan, config)
        if splits is None:
            with telemetry.span("stage.prepare_splits", prep_key=config.prep_key):
                splits = experiment.prepare_splits()
            telemetry.counter("executor.prep_splits_built").inc()
        else:
            telemetry.counter("executor.prep_cache_hits").inc()
        if config.components["pre_processor"] in prepared_cache:
            telemetry.counter("executor.prepared_cache_hits").inc()
        prepared = prepare(config, experiment)
        fitted = fitted_cache.take(config)
        peers: List[RunConfig] = []
        if fitted is not None:
            telemetry.counter("executor.fitted_cache_hits").inc()
        else:
            peers = fitted_cache.peers(config)
        peer_prepared = [prepare(peer, build_experiment(plan, peer)) for peer in peers]
        with telemetry.span("stage.train", run_key=config.run_key):
            trained = experiment.train_candidates(
                prepared, fitted=fitted, peers=peer_prepared
            )
        fitted_cache.put(config, trained.fitted)
        for peer, peer_fitted in zip(peers, trained.peer_fitted):
            fitted_cache.put(peer, peer_fitted)
        with telemetry.span("stage.evaluate", run_key=config.run_key):
            result = experiment.evaluate(prepared, trained)
        result.run_key = config.run_key
        yield config, result


def plan_groups(pending: Sequence[RunConfig]) -> List[List[RunConfig]]:
    """Partition pending configs into shared-preparation groups.

    The scheduling unit every backend distributes: all configs in a group
    share a ``prep_key``, so whoever executes the group (a local process,
    a remote grid worker) prepares its splits exactly once.
    """
    grouped: Dict[str, List[RunConfig]] = {}
    for config in pending:
        grouped.setdefault(config.prep_key, []).append(config)
    return list(grouped.values())


class Executor(abc.ABC):
    """One interface for all backends: ``run(plan) -> [RunResult]``.

    Results come back in plan (expansion) order regardless of the
    scheduling a backend chooses, and are identical across backends.
    """

    def run(
        self,
        plan: ExecutionPlan,
        results_store: Optional[ResultsStore] = None,
        resume: bool = False,
        progress: Optional[ProgressCallback] = None,
    ) -> List[RunResult]:
        configs = list(plan.configs)
        total = len(configs)
        slots: Dict[int, RunResult] = {}
        done = 0

        def finish(config: RunConfig, result: RunResult) -> None:
            nonlocal done
            slots[config.index] = result
            done += 1
            if progress is not None:
                progress(done, total, result)

        pending: List[RunConfig] = []
        if resume and results_store is not None:
            completed: Dict[str, RunResult] = {}
            # tolerate torn lines: an interrupted write is exactly the
            # situation resume recovers from
            for stored in results_store.load(strict=False):
                if stored.run_key and stored.run_key not in completed:
                    completed[stored.run_key] = stored
            for config in configs:
                hit = completed.get(config.run_key)
                if hit is not None:
                    finish(config, hit)
                else:
                    pending.append(config)
        else:
            pending = configs

        def emit_group(group: Sequence[RunConfig], results: List[RunResult]) -> None:
            if results_store is not None:
                results_store.extend(results)
            for config, result in zip(group, results):
                finish(config, result)

        if pending:
            # the run's root span: every stage span — including those in
            # forked workers, which inherit this open span via the
            # thread-local stack — parents under it, so one grid run
            # stitches into one tree
            with telemetry.span(
                "grid.run",
                backend=type(self).__name__,
                total=total,
                pending=len(pending),
            ):
                self._execute(plan, pending, emit_group)
        return [slots[config.index] for config in configs]

    @abc.abstractmethod
    def _execute(
        self,
        plan: ExecutionPlan,
        pending: List[RunConfig],
        emit_group: Callable[[Sequence[RunConfig], List[RunResult]], None],
    ) -> None:
        """Run the pending configs, reporting each completed group."""


def _run_groups_in_process(plan, groups, emit_group) -> None:
    """Run groups here, persisting a group's completed runs even when a
    later run in it raises (so an interrupted grid resumes where it died)."""
    for group in groups:
        finished_configs: List[RunConfig] = []
        finished_results: List[RunResult] = []
        try:
            for config, result in iter_config_group(plan, group):
                finished_configs.append(config)
                finished_results.append(result)
        except BaseException:
            if finished_results:
                emit_group(finished_configs, finished_results)
            raise
        emit_group(finished_configs, finished_results)


class SerialExecutor(Executor):
    """In-process execution, one run at a time (with preparation reuse)."""

    def _execute(self, plan, pending, emit_group) -> None:
        _run_groups_in_process(plan, plan_groups(pending), emit_group)


# ----------------------------------------------------------------------
# process-pool backend
#
# Grid factories are often lambdas/closures, which do not pickle. The
# fan-out therefore runs on :mod:`repro.parallel` — the fork-based group
# runner shared with GridSearchCV's ``n_jobs`` — which publishes the plan
# for forked workers to inherit, so only config indices and results cross
# the process boundary.
# ----------------------------------------------------------------------
def _run_plan_group(plan, group: Sequence[RunConfig]) -> List[RunResult]:
    return [result for _, result in iter_config_group(plan, group)]


class ParallelExecutor(Executor):
    """Process-pool execution of preparation groups.

    ``jobs`` defaults to the machine's CPU count. Preparation groups are
    the unit of distribution (cache sharing never crosses processes); when
    there are fewer groups than workers, the largest groups are split so
    every worker gets something to do — at the cost of re-preparing the
    split halves, which never changes the results.
    """

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = int(jobs) if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    def _execute(self, plan, pending, emit_group) -> None:
        groups = plan_groups(pending)
        workers = min(self.jobs, len(pending))
        if workers <= 1:
            _run_groups_in_process(plan, groups, emit_group)
            return
        groups = parallel.split_for_balance(groups, workers)
        parallel.run_groups(
            plan,
            _run_plan_group,
            groups,
            min(workers, len(groups)),
            lambda index, group, results: emit_group(group, results),
        )


# ----------------------------------------------------------------------
# backend registry
#
# Every executor backend registers here under a short name, so callers
# (the CLI, run_grid) can select one without importing its module —
# :mod:`repro.core.distributed` registers itself on import.
# ----------------------------------------------------------------------
EXECUTOR_BACKENDS: Dict[str, Callable[..., Executor]] = {}


def register_executor(name: str, factory: Callable[..., Executor]) -> None:
    """Register an executor backend under a short selector name."""
    EXECUTOR_BACKENDS[name] = factory


def make_executor(name: str, **kwargs) -> Executor:
    """Instantiate a registered backend: ``make_executor("parallel", jobs=4)``."""
    try:
        factory = EXECUTOR_BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown executor backend {name!r}; "
            f"available: {sorted(EXECUTOR_BACKENDS)}"
        ) from None
    return factory(**kwargs)


register_executor("serial", SerialExecutor)
register_executor("parallel", ParallelExecutor)
