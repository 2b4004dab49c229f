"""The paper's sweeps as benchmark workloads: Figure 2 and Figures 4/5.

A *pass* is one input seed's quick-scale grid, run through ``run_grid`` on
the serial executor into a fresh ``ResultsStore``. Successive passes of a
run rotate through the input seeds of its seed's block
(:func:`common.input_seed`): how long a grid takes depends on its seed by
about ±10% (tree sizes, SGD iterations), so rotating keeps one seed's grid
from deciding a run.
The run reports the first decile of its pass times (see README.md, "Why
the fastest decile"); no latency percentile is ever taken over runs of
different durations (tuned and untuned runs differ by 10x on germancredit).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Dict, List

import common
import layers
import tracing

SETUP_REPEATS = 3
#: ``QUICK_DT_GRID`` of the figure benches (benchmarks/_config.py), pinned
#: here so the workload cannot change under the reference digests.
QUICK_DT_GRID = {
    "criterion": ["gini", "entropy"],
    "max_depth": [3, 10],
    "min_samples_leaf": [1, 10],
    "min_samples_split": [2, 20],
}
#: Fewest untraced passes a run reports on.
MIN_PASSES = 3


def fig2_grid(seed: int):
    """Figure 2 at quick scale: LR/DT x tuned/untuned x six interventions."""
    from repro.core import (
        CalibratedEqOddsPostProcessor,
        DIRemover,
        DecisionTree,
        GridSpec,
        LogisticRegression,
        NoIntervention,
        RejectOptionPostProcessor,
        ReweighingPreProcessor,
    )

    learners = [
        lambda: LogisticRegression(tuned=False),
        lambda: LogisticRegression(tuned=True),
        lambda: DecisionTree(tuned=False),
        lambda: DecisionTree(tuned=True, param_grid=QUICK_DT_GRID),
    ]
    interventions = [
        NoIntervention,
        lambda: DIRemover(0.5),
        lambda: DIRemover(1.0),
        ReweighingPreProcessor,
        lambda: RejectOptionPostProcessor(num_class_thresh=20, num_ROC_margin=15),
        lambda: CalibratedEqOddsPostProcessor(),
    ]
    timed = GridSpec(seeds=[seed], learners=learners, interventions=interventions)
    warmup = GridSpec(seeds=[seed], learners=learners, interventions=[NoIntervention])
    return timed, warmup


def fig45_grid(seed: int):
    """Figures 4/5 at quick scale: untuned LR x three handlers x three
    interventions on 6000 adult rows."""
    from repro.core import (
        CompleteCaseAnalysis,
        DIRemover,
        DatawigImputer,
        GridSpec,
        LogisticRegression,
        ModeImputer,
        NoIntervention,
        ReweighingPreProcessor,
    )

    learners = [lambda: LogisticRegression(tuned=False)]
    handlers = [
        lambda: CompleteCaseAnalysis(),
        lambda: ModeImputer(),
        lambda: DatawigImputer(),
    ]
    timed = GridSpec(
        seeds=[seed],
        learners=learners,
        interventions=[NoIntervention, ReweighingPreProcessor, lambda: DIRemover(1.0)],
        missing_value_handlers=handlers,
    )
    warmup = GridSpec(
        seeds=[seed],
        learners=learners,
        interventions=[NoIntervention],
        missing_value_handlers=handlers,
    )
    return timed, warmup


# dataset name, rows (None = canonical size), grid builder
SWEEPS = {
    "fig2-germancredit": ("germancredit", None, fig2_grid),
    "fig45-adult": ("adult", 6000, fig45_grid),
}


def digest(results) -> str:
    """Sorted-key JSON digest of a pass's RunResult list."""
    payload = json.dumps([r.to_dict() for r in results], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_references() -> Dict[str, Dict[str, str]]:
    with open(os.path.join(common.HERE, "references.json")) as handle:
        return json.load(handle)


class Sweep:
    """One sweep workload bound to its dataset; a pass names its seed."""

    def __init__(self, name: str, seed: int, scratch: str):
        self.name = name
        self.scratch = scratch
        self.seed = seed
        self.passes = 0

    def pass_seed(self, index: int) -> int:
        return common.input_seed(self.seed, index)

    def set_up(self) -> None:
        """Dataset generation, plan expansion and the untimed warm-up."""
        import repro.datasets
        from repro.core import ExecutionPlan, SerialExecutor, run_grid

        dataset, rows, grids = SWEEPS[self.name]
        self.frame, self.spec = repro.datasets.load_dataset(dataset, n=rows)
        grid, warmup = grids(self.pass_seed(0))
        # plan expansion is set-up work too; run_grid repeats it per pass
        ExecutionPlan.for_grid(self.frame, self.spec, grid)
        run_grid((self.frame, self.spec), warmup, executor=SerialExecutor())

    def run_pass(self, seed: int):
        """One timed pass on input seed ``seed``; returns (seconds, results)."""
        from repro.core import ResultsStore, SerialExecutor, run_grid
        from repro.core.runner import manifest_path

        grid, _ = SWEEPS[self.name][2](seed)
        self.passes += 1
        store = ResultsStore(os.path.join(self.scratch, f"pass-{self.passes}.jsonl"))
        started = time.perf_counter()
        results = run_grid(
            (self.frame, self.spec),
            grid,
            results_store=store,
            executor=SerialExecutor(),
        )
        elapsed = time.perf_counter() - started
        for path in (store.path, manifest_path(store)):
            os.unlink(path)
        return elapsed, results


def run(name: str, seed: int, seconds: float, trace: bool, started: float,
        references=None) -> Dict[str, object]:
    """Run one sweep workload; ``started`` is the process start timestamp."""
    scratch = common.scratch_dir()
    try:
        return _run(name, seed, seconds, trace, started, scratch, references)
    finally:
        common.remove_scratch(scratch)


def _run(name, seed, seconds, trace, started, scratch, references):
    common.import_program()
    imported = time.perf_counter() - started
    references = load_references() if references is None else references
    expected = references.get(name, {})
    recorder = tracing.Recorder() if trace else None
    if recorder is not None:
        tracing.install(recorder, tracing.SWEEP)
    sweep = Sweep(name, seed, scratch)
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        began = time.perf_counter()
        sweep.set_up()
        setups.append(time.perf_counter() - began)
    if recorder is not None:
        recorder.uninstall()

    # a traced run times each seed twice, untraced then traced, so the
    # tracing overhead is a ratio over identical work
    modes = (False, True) if trace else (False,)
    deadline = common.Deadline(seconds)
    times: Dict[bool, List[float]] = {False: [], True: []}
    seeds: List[int] = []
    failed = 0
    while True:
        pass_seed = sweep.pass_seed(len(seeds))
        seeds.append(pass_seed)
        for traced in modes:
            if traced:
                tracing.install(recorder, tracing.SWEEP)
                with recorder.span("bench.pass"):
                    elapsed, results = sweep.run_pass(pass_seed)
                recorder.uninstall()
            else:
                elapsed, results = sweep.run_pass(pass_seed)
            times[traced].append(elapsed)
            failed += digest(results) != expected.get(str(pass_seed))
        if len(seeds) >= (1 if trace else MIN_PASSES) and deadline.passed():
            break

    attempted = len(seeds) * len(modes)
    context = dict(
        common.machine_context(seed),
        workload=name,
        passes=attempted,
        pass_seeds=seeds,
        runs_per_pass=len(results),
        pass_seconds=times[False],
    )
    fast, _ = common.deciles(times[False])
    if not trace:
        metrics = {
            "throughput_per_s": common.metric(len(results) / fast, "1/s"),
            "setup_s": common.metric(imported + common.median(setups), "s"),
            "peak_rss_mb": common.metric(common.peak_rss_mb(), "MB"),
            "success_rate": common.metric((attempted - failed) / attempted, "ratio"),
        }
        report = {
            "runs_per_s": metrics["throughput_per_s"],
            "pass_p10_ms": common.metric(fast * 1000.0, "ms"),
            "pass_p50_ms": common.metric(common.median(times[False]) * 1000.0, "ms"),
            "setup_s": metrics["setup_s"],
            "peak_rss_mb": metrics["peak_rss_mb"],
            "success_rate": metrics["success_rate"],
        }
    else:
        overhead = common.median([t / u for t, u in zip(times[True], times[False])])
        metrics = layers.sweep_metrics(recorder.spans, 100.0 * (overhead - 1.0))
        context["traced_pass_seconds"] = times[True]
        report = {}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": report,
        "context": context,
    }
