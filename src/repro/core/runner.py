"""Grid runner: execute experiment configurations over seeds × interventions.

This is the workhorse behind the paper's studies ("we leverage 16 different
random seeds ... and execute 1,344 runs in total"). Since the staged-engine
refactor it is a thin façade: :class:`~repro.core.plan.GridSpec` expands
into serializable run configurations (the *plan*), and an executor backend
(:mod:`repro.core.executors`) schedules them — serially or across
processes — while deduplicating shared preparation work.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, List, Optional, Tuple, Union

from .. import telemetry
from ..datasets import DatasetSpec, dataset_spec, load_dataset
from ..durable import crash_safe_write
from ..frame import DataFrame
from .executors import (
    ExecutionPlan,
    Executor,
    ParallelExecutor,
    SerialExecutor,
    build_experiment,
)
from .plan import GridSpec, Intervention, route_intervention
from .results import ResultsStore, RunResult

#: Version of the run-manifest shape written by :func:`write_run_manifest`.
#: Bump whenever a field changes meaning, so readers can detect old files.
RUN_MANIFEST_VERSION = 2


def open_store_dataset(
    dataset: str, store_dir: str
) -> Tuple[DataFrame, DatasetSpec, str]:
    """A frame-store-backed grid input: memory-mapped frame + spec + identity.

    The frame reopens as OS-paged memory maps (milliseconds at any size —
    distributed workers on synthetic millions never re-parse a CSV), the
    spec comes from the named dataset registry, and the dataset
    fingerprint comes from the store manifest, so ``run_key``s agree
    across every machine that opens an identical store.
    """
    from ..frame.storage import FrameStore

    store = FrameStore.open(store_dir)
    return store.frame(), dataset_spec(dataset), store.fingerprint()


def run_grid(
    dataset: Union[str, Tuple[DataFrame, DatasetSpec]],
    grid: GridSpec,
    protected_attribute: Optional[str] = None,
    dataset_size: Optional[int] = None,
    results_store: Optional[ResultsStore] = None,
    progress: Optional[Callable[[int, int, RunResult], None]] = None,
    jobs: int = 1,
    resume: bool = False,
    executor: Optional[Executor] = None,
    dataset_fingerprint: Optional[str] = None,
    frame_store: Optional[str] = None,
    export=None,
    export_tags=None,
) -> List[RunResult]:
    """Run every combination in the grid; returns the result records.

    ``dataset`` is a registered dataset name (generated with seed 0) or an
    explicit ``(frame, spec)`` pair. ``jobs`` > 1 selects the process-pool
    backend; pass an explicit ``executor`` for full control. With
    ``resume=True`` (requires ``results_store``), combinations whose
    ``run_key`` is already stored are returned from the store instead of
    recomputed. Results always come back in grid-expansion order.

    ``frame_store`` (a :mod:`repro.frame.storage` store directory) replaces
    the generated frame with the store's memory-mapped one; ``dataset``
    must then be a registered name (it supplies the spec) and the dataset
    fingerprint defaults to the store manifest's.

    ``export`` (a :class:`~repro.serve.registry.ModelRegistry` or a path)
    publishes the best run's fitted pipeline — highest best-candidate
    validation accuracy across the grid — into the registry after the sweep,
    keyed by that run's ``run_key`` and optionally tagged ``export_tags``.
    """
    if frame_store is not None:
        if not isinstance(dataset, str):
            raise ValueError(
                "frame_store requires a registered dataset name for its spec"
            )
        frame, spec, store_fingerprint = open_store_dataset(dataset, frame_store)
        if dataset_fingerprint is None:
            dataset_fingerprint = store_fingerprint
    elif isinstance(dataset, str):
        frame, spec = load_dataset(dataset, n=dataset_size)
    else:
        frame, spec = dataset

    plan = ExecutionPlan.for_grid(
        frame,
        spec,
        grid,
        protected_attribute=protected_attribute,
        dataset_fingerprint=dataset_fingerprint,
    )
    if executor is None:
        executor = ParallelExecutor(jobs=jobs) if jobs > 1 else SerialExecutor()
    started = time.time()
    stages_before = telemetry.aggregate_state()
    results = executor.run(
        plan, results_store=results_store, resume=resume, progress=progress
    )
    if results_store is not None:
        write_run_manifest(
            results_store,
            plan,
            executor,
            wall_seconds=time.time() - started,
            stage_timings=telemetry.aggregate_delta(stages_before),
        )
    if export is not None and results:
        export_best(plan, results, export, tags=export_tags)
    return results


def manifest_path(store: ResultsStore) -> str:
    """Where a grid's run manifest lives, next to its results store."""
    return store.path + ".manifest.json"


def write_run_manifest(
    store: ResultsStore,
    plan: ExecutionPlan,
    executor: Executor,
    wall_seconds: float,
    stage_timings: Optional[dict] = None,
) -> str:
    """Persist the audit record of one grid run next to its results.

    The manifest makes a sweep self-describing after the fact: the
    configuration fingerprints it expanded to, which executor backend ran
    it, how long it took (wall clock plus per-stage span totals when
    tracing was on), and the distributed lease statistics if any. Written
    through a temp file + atomic rename, same as the store itself, and
    rewritten whole on every run (including resumes).
    """
    prep_keys = sorted({config.prep_key for config in plan.configs})
    manifest = {
        "manifest_version": RUN_MANIFEST_VERSION,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "dataset": plan.spec.name,
        "dataset_fingerprint": plan.dataset_fingerprint,
        "rows": plan.frame.num_rows,
        "protected_attribute": plan.protected_attribute,
        "executor": type(executor).__name__,
        "grid_size": len(plan.configs),
        "prep_groups": len(prep_keys),
        "prep_keys": prep_keys,
        "run_keys": [config.run_key for config in plan.configs],
        "wall_seconds": round(wall_seconds, 6),
        "stage_timings": stage_timings or {},
        "telemetry": {
            "tracing": telemetry.tracing_enabled(),
            "trace_dir": telemetry.trace_dir(),
            "counters": telemetry.metrics_state()["counters"],
        },
        "results_path": os.path.basename(store.path),
    }
    distributed_stats = getattr(executor, "stats", None)
    if isinstance(distributed_stats, dict):
        manifest["distributed"] = distributed_stats
    path = manifest_path(store)
    with crash_safe_write(path) as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def export_best(
    plan: ExecutionPlan,
    results: List[RunResult],
    registry,
    tags=None,
) -> dict:
    """Re-fit the grid's best run and publish its pipeline.

    The winner is the run whose chosen candidate has the highest validation
    accuracy (the grid-level analog of the in-run ``AccuracySelector``).
    Training is deterministic in (inputs, seed), so the re-fit reproduces
    the recorded run exactly; the published entry carries that run's
    ``run_key`` and metric record.
    """

    def validation_accuracy(result: RunResult) -> float:
        value = result.best_candidate.validation_metrics.get("overall__accuracy")
        if value is None or value != value:
            return float("-inf")
        return float(value)

    best_position = max(range(len(results)), key=lambda i: validation_accuracy(results[i]))
    best_result = results[best_position]
    config = plan.configs[best_position]
    experiment = build_experiment(plan, config)
    prepared = experiment.prepare()
    trained = experiment.train_candidates(prepared)
    return experiment.export_pipeline(
        prepared, trained, best_result, registry=registry, tags=tags
    )


__all__ = [
    "GridSpec",
    "Intervention",
    "export_best",
    "manifest_path",
    "open_store_dataset",
    "run_grid",
    "route_intervention",
    "write_run_manifest",
]
