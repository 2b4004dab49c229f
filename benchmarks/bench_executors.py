"""Staged-engine speedup: serial vs parallel vs shared-preparation cache.

Compares three backends on two grids:

* a quick-scale slice of the Figure-2 tuning grid (germancredit, tuned +
  untuned learners x six interventions) — training-dominated, where the
  process-pool backend wins once multiple cores are available;
* a Figure-4-style imputation grid (adult + learned imputer) — preparation-
  dominated, where the shared-preparation cache alone cuts wall-clock
  superlinearly in learner count, independent of core count.

Backends:

``serial (seed)``
    ``Experiment.run()`` once per plan cell: every run recomputes the
    full split → resample → impute → featurize pipeline, as the
    pre-engine serial runner did.
``serial+cache``
    ``SerialExecutor()``: one preparation per (seed, handler, scaler)
    group, one fitted pre-processor per (group, intervention).
``parallel+cache``
    ``ParallelExecutor(jobs=4)``: preparation groups fanned out over a
    process pool, same caching inside each worker.

All backends must emit identical ``RunResult`` records; the benchmark
asserts that and a >= 2x speedup of ``parallel+cache`` over the seed-style
serial runner wherever the hardware allows it (the preparation-bound grid
reaches 2x even on a single core; the training-bound Figure-2 grid
additionally needs >= 2 usable cores for the pool to bite).
"""

import os
import time

import pytest

from repro.core import (
    CalibratedEqOddsPostProcessor,
    DatawigImputer,
    DecisionTree,
    DIRemover,
    GridSpec,
    LogisticRegression,
    NaiveBayes,
    NoIntervention,
    ParallelExecutor,
    RejectOptionPostProcessor,
    ReweighingPreProcessor,
    SerialExecutor,
    run_grid,
)
from repro.core.executors import ExecutionPlan, build_experiment
from repro.datasets import load_dataset

from _config import PAPER_SCALE, QUICK_DT_GRID, emit

JOBS = 4
EFFECTIVE_CORES = min(JOBS, os.cpu_count() or 1)

FIG2_INTERVENTIONS = [
    NoIntervention,
    lambda: DIRemover(0.5),
    lambda: DIRemover(1.0),
    ReweighingPreProcessor,
    lambda: RejectOptionPostProcessor(num_class_thresh=20, num_ROC_margin=15),
    lambda: CalibratedEqOddsPostProcessor(),
]


def _fig2_grid():
    """The Figure-2 axes at benchmark scale (2 seeds quick, 16 paper)."""
    dt_grid = None if PAPER_SCALE else QUICK_DT_GRID
    return GridSpec(
        seeds=list(range(16)) if PAPER_SCALE else [0, 3],
        learners=[
            lambda: LogisticRegression(tuned=False),
            lambda: LogisticRegression(tuned=True),
            lambda: DecisionTree(tuned=False),
            lambda: DecisionTree(tuned=True, param_grid=dt_grid),
        ],
        interventions=FIG2_INTERVENTIONS,
    )


def _imputation_grid():
    """Figure-4-style grid: expensive learned imputation, cheap learners."""
    return GridSpec(
        seeds=list(range(8)) if PAPER_SCALE else [0, 1],
        learners=[
            lambda: LogisticRegression(tuned=False),
            lambda: DecisionTree(tuned=False),
            lambda: NaiveBayes(),
        ],
        interventions=[NoIntervention, ReweighingPreProcessor],
        missing_value_handlers=[lambda: DatawigImputer()],
    )


def _run_each_cell(frame_spec, grid):
    """The seed-style runner: no preparation is shared between runs."""
    plan = ExecutionPlan.for_grid(*frame_spec, grid)
    results = []
    for config in plan.configs:
        result = build_experiment(plan, config).run()
        result.run_key = config.run_key
        results.append(result)
    return results


BACKENDS = [
    ("serial (seed)", _run_each_cell),
    (
        "serial+cache",
        lambda frame_spec, grid: run_grid(frame_spec, grid, executor=SerialExecutor()),
    ),
    (
        "parallel+cache",
        lambda frame_spec, grid: run_grid(
            frame_spec, grid, executor=ParallelExecutor(jobs=JOBS)
        ),
    ),
]


def _compare_backends(dataset, grid):
    frame_spec = load_dataset(dataset[0], n=dataset[1])
    rows = []
    reference = None
    baseline = None
    for label, run in BACKENDS:
        start = time.perf_counter()
        results = run(frame_spec, grid)
        elapsed = time.perf_counter() - start
        payload = [r.to_json() for r in results]
        if reference is None:
            reference, baseline = payload, elapsed
        else:
            assert payload == reference, f"{label} diverged from the serial backend"
        rows.append((label, len(results), elapsed, baseline / elapsed))
    return rows


def _render(title, rows):
    lines = [f"{title}", f"{'backend':<16} {'runs':>5} {'seconds':>9} {'speedup':>8}"]
    for label, count, elapsed, speedup in rows:
        lines.append(f"{label:<16} {count:>5} {elapsed:>9.2f} {speedup:>7.2f}x")
    return "\n".join(lines)


@pytest.mark.benchmark(group="executors")
def test_executor_speedup(benchmark, capsys):
    def comparison():
        fig2 = _compare_backends(("germancredit", None), _fig2_grid())
        imputation = _compare_backends(("adult", None if PAPER_SCALE else 3000), _imputation_grid())
        return fig2, imputation

    fig2, imputation = benchmark.pedantic(comparison, rounds=1, iterations=1)
    emit(
        "executors_speedup",
        _render("figure-2 slice (germancredit, training-bound)", fig2)
        + "\n\n"
        + _render("imputation grid (adult, preparation-bound)", imputation)
        + f"\n\ncores available: {os.cpu_count()}, jobs: {JOBS}",
        capsys=capsys,
    )

    parallel_fig2 = fig2[-1][-1]
    parallel_imputation = imputation[-1][-1]
    # the preparation cache alone must deliver 2x on the prep-bound grid,
    # one core is enough
    assert parallel_imputation >= 2.0
    # the training-bound Fig-2 grid needs actual parallel hardware for 2x;
    # on a single core the engine must at least never be slower
    if EFFECTIVE_CORES >= 2:
        assert parallel_fig2 >= 2.0
    else:
        assert parallel_fig2 >= 0.9
