"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the integrated datasets with sizes and protected attributes.
``describe --dataset NAME``
    Print a per-column audit of a generated dataset (counts, missing,
    distributions) — the §2.4-style inspection.
``run --dataset NAME [options]``
    Execute a single lifecycle run and print the key test metrics.
``grid --dataset NAME --seeds N [options]``
    Execute a seed × intervention sweep and print the aggregate table
    (``--export`` publishes the best run's pipeline into a registry;
    ``--distributed`` runs it as a fault-tolerant work-queue coordinator
    leasing preparation groups to ``--jobs`` forked localhost workers
    and/or external ``grid-worker`` processes; ``--frame-store DIR``
    reads the dataset from a memory-mapped frame store).
``grid-worker --connect HOST:PORT [--worker-id ID --frame-store DIR]``
    Join a ``grid --distributed`` coordinator as a worker: rebuild the
    grid from the coordinator's manifest, lease preparation groups,
    stream results back, exit when the grid is done.
``export --dataset NAME --registry PATH [options]``
    Run one lifecycle and publish the fitted pipeline into a registry.
``score --registry PATH --model REF --dataset NAME [options]``
    Reload a pipeline in this (fresh) process and score a batch;
    ``--verify`` byte-compares against the exported run's predictions.
``serve --registry PATH --model REF [--host --port --workers N --max-batch --max-wait-ms]``
    Start the stdlib HTTP scoring endpoint with runtime monitoring and
    micro-batched single-record scoring; ``--workers N`` pre-forks a
    supervised multi-core fleet sharing one port with fleet-aggregated
    ``/metrics`` and ``/healthz``.
``registry --registry PATH [--list | --promote ID | --rollback]``
    Inspect and manage tags in a model registry.
``trace --dir DIR [--strict --json]``
    Summarize a telemetry trace directory (written by ``grid
    --trace-dir`` or ``REPRO_TRACE_DIR``): per-stage time totals across
    every process and the run's critical path; ``--strict`` verifies the
    spans stitch into exactly one tree.
``lint [--root DIR --json --select RULES]``
    Run the project-native static-analysis pass (see ``INVARIANTS.md``)
    over the installed ``repro`` package: no-pickle serialization,
    strict-JSON serving, crash-safe writes, fork-safe locks,
    deterministic fingerprints, lock discipline, observable failures,
    versioned wire shapes. Any finding fails (exit 1); a finding is
    accepted only by a reasoned inline waiver.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import telemetry
from .analysis import format_table, summary
from .core import (
    CalibratedEqOddsPostProcessor,
    CompleteCaseAnalysis,
    DIRemover,
    DatawigImputer,
    DecisionTree,
    Experiment,
    GridSpec,
    LogisticRegression,
    ModeImputer,
    NaiveBayes,
    NoIntervention,
    RejectOptionPostProcessor,
    ResultsStore,
    ReweighingPreProcessor,
    run_grid,
)
from .core.plan import route_intervention
from .datasets import dataset_names, load_dataset
from .frame import describe
from .learn import MinMaxScaler, NoOpScaler, StandardScaler

#: bumped when the grid-manifest layout changes; a worker refuses to
#: rebuild a plan from a manifest version it does not understand
MANIFEST_VERSION = 1

_LEARNERS = {
    "lr": lambda tuned: LogisticRegression(tuned=tuned),
    "dt": lambda tuned: DecisionTree(tuned=tuned),
    "nb": lambda tuned: NaiveBayes(),
}

_INTERVENTIONS = {
    "none": NoIntervention,
    "reweighing": ReweighingPreProcessor,
    "di-remover-0.5": lambda: DIRemover(0.5),
    "di-remover-1.0": lambda: DIRemover(1.0),
    "reject-option": lambda: RejectOptionPostProcessor(
        num_class_thresh=20, num_ROC_margin=15
    ),
    "cal-eq-odds": lambda: CalibratedEqOddsPostProcessor(),
}

_SCALERS = {
    "standard": StandardScaler,
    "minmax": MinMaxScaler,
    "none": NoOpScaler,
}

_HANDLERS = {
    "auto": None,  # pick based on the dataset's missingness
    "complete-case": CompleteCaseAnalysis,
    "mode": ModeImputer,
    "learned": DatawigImputer,
}

_KEY_METRICS = [
    "overall__accuracy",
    "privileged__accuracy",
    "unprivileged__accuracy",
    "group__disparate_impact",
    "group__statistical_parity_difference",
    "group__false_negative_rate_difference",
    "group__false_positive_rate_difference",
    "group__theil_index",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FairPrep reproduction: run fairness-intervention studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_datasets = sub.add_parser(
        "datasets", help="list integrated datasets / synthesize scaled copies"
    )
    dsub = p_datasets.add_subparsers(dest="datasets_command")
    dsub.add_parser("list", help="list integrated datasets (the default)")
    p_synth = dsub.add_parser(
        "synth", help="inflate a dataset to production scale (stratified bootstrap)"
    )
    p_synth.add_argument(
        "--dataset", default="adult", help="source dataset to inflate"
    )
    p_synth.add_argument(
        "--rows", type=int, required=True, help="target row count (e.g. 1000000)"
    )
    p_synth.add_argument("--seed", type=int, default=0, help="resampling seed")
    p_synth.add_argument("--out", default=None, help="write the frame as CSV here")
    p_synth.add_argument(
        "--store",
        default=None,
        help="spill the frame into a memory-mappable store directory",
    )

    p_describe = sub.add_parser("describe", help="audit a generated dataset")
    _dataset_args(p_describe)

    p_run = sub.add_parser("run", help="execute a single lifecycle run")
    _dataset_args(p_run)
    _component_args(p_run)
    p_run.add_argument("--seed", type=int, default=0, help="run seed")

    p_grid = sub.add_parser("grid", help="execute a seed x intervention sweep")
    _dataset_args(p_grid)
    _component_args(p_grid)
    p_grid.add_argument("--seeds", type=int, default=3, help="number of seeds")
    p_grid.add_argument(
        "--interventions",
        nargs="+",
        default=["none", "reweighing", "di-remover-0.5"],
        choices=sorted(_INTERVENTIONS),
    )
    p_grid.add_argument("--output", default=None, help="JSONL results file")
    p_grid.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the grid (1 = serial; >1 uses the "
        "process-pool backend with shared-preparation caching; with "
        "--distributed this is the forked localhost worker count and "
        "0 means serve external grid-worker processes only)",
    )
    p_grid.add_argument(
        "--distributed",
        action="store_true",
        help="run as a work-queue coordinator: lease preparation groups "
        "to --jobs forked localhost workers and any grid-worker process "
        "that connects to --bind; results are identical to serial",
    )
    p_grid.add_argument(
        "--bind",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="coordinator listen address for --distributed "
        "(port 0 picks a free port; printed on startup)",
    )
    p_grid.add_argument(
        "--lease-seconds",
        type=float,
        default=30.0,
        help="distributed lease deadline: a worker silent this long has "
        "its unfinished keys re-queued for another worker",
    )
    p_grid.add_argument(
        "--frame-store",
        default=None,
        metavar="DIR",
        help="read the dataset from this memory-mapped frame store "
        "(written by `datasets synth --store`) instead of generating it; "
        "run fingerprints then derive from the store manifest",
    )
    p_grid.add_argument(
        "--resume",
        action="store_true",
        help="skip combinations already present in --output (matched by "
        "run fingerprint) instead of recomputing them",
    )
    p_grid.add_argument(
        "--export",
        default=None,
        metavar="REGISTRY",
        help="publish the best run's fitted pipeline into this registry",
    )
    p_grid.add_argument(
        "--export-tag",
        action="append",
        default=None,
        help="tag to promote the exported model to (repeatable)",
    )
    p_grid.add_argument(
        "--quiet",
        action="store_true",
        help="suppress progress and coordinator event lines on stderr "
        "(the result table still prints)",
    )
    p_grid.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="enable span tracing: every process (coordinator and "
        "workers) appends spans to its own JSONL file in DIR; inspect "
        "with `repro trace --dir DIR`",
    )

    p_worker = sub.add_parser(
        "grid-worker", help="join a distributed grid run as a worker"
    )
    p_worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address of a `grid --distributed` coordinator",
    )
    p_worker.add_argument(
        "--worker-id",
        default=None,
        help="stable worker name for coordinator-side stats "
        "(default: hostname-pid)",
    )
    p_worker.add_argument(
        "--frame-store",
        default=None,
        metavar="DIR",
        help="local frame store directory holding the coordinator's "
        "dataset (required when the coordinator grid runs on a store; "
        "fingerprints must match)",
    )
    p_worker.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-lease event lines on stderr",
    )
    p_worker.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="append this worker's spans to its own JSONL file in DIR "
        "(adopts the coordinator's trace id, so a shared DIR stitches "
        "into one tree)",
    )

    p_trace = sub.add_parser(
        "trace", help="summarize a telemetry trace directory"
    )
    p_trace.add_argument(
        "--dir",
        required=True,
        metavar="DIR",
        dest="trace_dir",
        help="trace directory written via --trace-dir / REPRO_TRACE_DIR",
    )
    p_trace.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero unless the trace stitches into exactly one "
        "span tree with no torn lines",
    )
    p_trace.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable summary instead of the report",
    )

    p_export = sub.add_parser(
        "export", help="run one lifecycle and publish the fitted pipeline"
    )
    _dataset_args(p_export)
    _component_args(p_export)
    p_export.add_argument("--seed", type=int, default=0, help="run seed")
    p_export.add_argument("--registry", required=True, help="registry directory")
    p_export.add_argument(
        "--tag", action="append", default=None, help="tag for the model (repeatable)"
    )

    p_score = sub.add_parser(
        "score", help="reload an exported pipeline and score a batch"
    )
    p_score.add_argument("--registry", required=True, help="registry directory")
    p_score.add_argument(
        "--model", default="production", help="model id or tag (default: production)"
    )
    _dataset_args(p_score)
    p_score.add_argument(
        "--verify",
        action="store_true",
        help="score the exported run's own test split and assert byte-for-byte "
        "agreement with the in-process predictions stored in the artifact",
    )

    p_serve = sub.add_parser("serve", help="start the HTTP scoring endpoint")
    p_serve.add_argument("--registry", required=True, help="registry directory")
    p_serve.add_argument(
        "--model", default="production", help="model id or tag (default: production)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="number of scoring worker processes sharing the port "
        "(1 = single-process serving, the default; N > 1 pre-forks a "
        "supervised fleet whose workers share the port via SO_REUSEPORT)",
    )
    p_serve.add_argument(
        "--window", type=int, default=1000, help="monitoring window size"
    )
    p_serve.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="coalesce up to this many concurrent single-record requests "
        "into one vectorized scoring pass (1 = score inline, no batching)",
    )
    p_serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="how long a queued request waits for batch-mates before "
        "dispatching a partial batch",
    )

    p_lint = sub.add_parser(
        "lint", help="statically check the codebase's own invariants"
    )
    p_lint.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="package directory to lint (default: the installed repro package)",
    )
    p_lint.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable report instead of text",
    )
    p_lint.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated checker names to run (default: all)",
    )

    p_registry = sub.add_parser("registry", help="inspect/manage a model registry")
    p_registry.add_argument("--registry", required=True, help="registry directory")
    p_registry.add_argument(
        "--list", action="store_true", help="list models and tags (the default)"
    )
    p_registry.add_argument("--promote", default=None, metavar="MODEL_ID")
    p_registry.add_argument("--rollback", action="store_true")
    p_registry.add_argument("--tag", default="production")
    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", required=True, choices=dataset_names())
    parser.add_argument("--size", type=int, default=None, help="row-count override")


def _component_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--learner", default="lr", choices=sorted(_LEARNERS))
    parser.add_argument("--no-tuning", action="store_true", help="skip grid search")
    parser.add_argument("--scaler", default="standard", choices=sorted(_SCALERS))
    parser.add_argument(
        "--missing", default="auto", choices=sorted(_HANDLERS), dest="missing"
    )
    parser.add_argument(
        "--intervention", default="none", choices=sorted(_INTERVENTIONS)
    )
    parser.add_argument(
        "--protected", default=None, help="protected attribute override"
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        if getattr(args, "datasets_command", None) == "synth":
            return _cmd_synth(args)
        return _cmd_datasets()
    if args.command == "describe":
        return _cmd_describe(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "export":
        return _cmd_export(args)
    if args.command == "score":
        return _cmd_score(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "registry":
        return _cmd_registry(args)
    if args.command == "grid-worker":
        return _cmd_grid_worker(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "lint":
        return _cmd_lint(args)
    return _cmd_grid(args)


def _cmd_datasets() -> int:
    rows = []
    for name in dataset_names():
        frame, spec = load_dataset(name, n=500 if name == "adult" else None)
        full_rows = {"adult": 32561}.get(name, frame.num_rows)
        rows.append([
            name,
            full_rows,
            spec.label_column,
            spec.favorable_value,
            ",".join(p.column for p in spec.protected_attributes),
        ])
    print(format_table(["dataset", "rows", "label", "favorable", "protected"], rows))
    return 0


def _cmd_synth(args) -> int:
    from .datasets import group_label_marginals, synthesize
    from .frame import FrameStoreWriter, write_csv

    source_frame, spec = load_dataset(args.dataset)
    synthetic, _ = synthesize(args.dataset, args.rows, seed=args.seed)
    source = group_label_marginals(source_frame, spec)
    scaled = group_label_marginals(synthetic, spec)
    rows = []
    for attribute in spec.protected_attributes:
        a, b = source[attribute.column], scaled[attribute.column]
        rows.append([
            attribute.column,
            f"{a['privileged_fraction']:.4f} -> {b['privileged_fraction']:.4f}",
            f"{a['privileged_base_rate']:.4f} -> {b['privileged_base_rate']:.4f}",
            f"{a['unprivileged_base_rate']:.4f} -> {b['unprivileged_base_rate']:.4f}",
        ])
    rows.append([
        "(label)",
        "",
        f"{source['__label__']['favorable_rate']:.4f} -> "
        f"{scaled['__label__']['favorable_rate']:.4f}",
        "",
    ])
    print(
        f"{args.dataset}: {source_frame.num_rows} -> {synthetic.num_rows} rows "
        f"(seed {args.seed})"
    )
    print(
        format_table(
            ["protected", "priv fraction", "priv base rate", "unpriv base rate"],
            rows,
        )
    )
    if args.out:
        write_csv(synthetic, args.out)
        print(f"wrote {args.out}")
    if args.store:
        with FrameStoreWriter(args.store, overwrite=True) as writer:
            writer.append(synthetic)
        print(f"spilled to {args.store}")
    return 0


def _cmd_describe(args) -> int:
    frame, spec = load_dataset(args.dataset, n=args.size)
    info = describe(frame)
    rows = []
    for column, stats in info.items():
        detail = (
            f"mean={stats['mean']:.2f} std={stats['std']:.2f}"
            if stats["kind"] == "numeric"
            else f"distinct={stats['distinct']} mode={stats['mode']}"
        )
        rows.append([column, stats["kind"], stats["count"], stats["missing"], detail])
    print(format_table(["column", "kind", "count", "missing", "detail"], rows))
    print(f"\nincomplete rows: {frame.num_incomplete_rows()} / {frame.num_rows}")
    return 0


def _pick_handler(args, frame, spec):
    name = _resolve_missing(args.missing, frame, spec)
    return name and _HANDLERS[name]()


def _build_experiment(args) -> Experiment:
    frame, spec = load_dataset(args.dataset, n=args.size)
    pre, post = route_intervention(_INTERVENTIONS[args.intervention]())
    return Experiment(
        frame=frame,
        spec=spec,
        random_seed=args.seed,
        learner=_LEARNERS[args.learner](not args.no_tuning),
        numeric_attribute_scaler=_SCALERS[args.scaler](),
        missing_value_handler=_pick_handler(args, frame, spec),
        pre_processor=pre,
        post_processor=post,
        protected_attribute=args.protected,
    )


def _cmd_run(args) -> int:
    result = _build_experiment(args).run()
    print(f"dataset={result.dataset} seed={result.random_seed} "
          f"learner={result.best_candidate.learner}")
    print(f"splits: {result.sizes}\n")
    rows = [[name, result.test_metrics.get(name, float("nan"))] for name in _KEY_METRICS]
    print(format_table(["test metric", "value"], rows))
    if result.test_metrics_incomplete:
        print(
            f"\naccuracy on imputed records:  "
            f"{result.test_metrics_incomplete['overall__accuracy']:.3f}"
        )
        print(
            f"accuracy on complete records: "
            f"{result.test_metrics_complete['overall__accuracy']:.3f}"
        )
    return 0


def _named_grid(
    seeds: int,
    learner: str,
    tuned: bool,
    interventions: List[str],
    scaler: str,
    missing: Optional[str],
) -> GridSpec:
    """Build a :class:`GridSpec` purely from registry names.

    Shared by ``grid`` and ``grid-worker`` so a manifest round-trip over
    the wire reproduces the coordinator's run fingerprints exactly.
    ``missing`` must already be resolved (no ``"auto"``): ``None`` means
    no handler.
    """
    handler = (lambda: _HANDLERS[missing]()) if missing else (lambda: None)
    return GridSpec(
        seeds=list(range(seeds)),
        learners=[lambda: _LEARNERS[learner](tuned)],
        interventions=[_INTERVENTIONS[name] for name in interventions],
        scalers=[_SCALERS[scaler]],
        missing_value_handlers=[handler],
    )


def _resolve_missing(name: str, frame, spec) -> Optional[str]:
    """Collapse ``auto`` to a concrete handler name for this frame."""
    if name != "auto":
        return name
    if frame.missing_mask(spec.feature_columns).any():
        return "mode"
    return None


def _cmd_grid(args) -> int:
    if args.resume and not args.output:
        print("--resume requires --output (the store to resume from)", file=sys.stderr)
        return 2
    if args.trace_dir:
        telemetry.configure(trace_dir=args.trace_dir)
    if args.quiet:
        telemetry.set_quiet(True)
    store = ResultsStore(args.output) if args.output else None
    if args.frame_store:
        from .core import open_store_dataset

        frame, spec, dataset_fingerprint = open_store_dataset(
            args.dataset, args.frame_store
        )
    else:
        frame, spec = load_dataset(args.dataset, n=args.size)
        dataset_fingerprint = None
    missing = _resolve_missing(args.missing, frame, spec)
    grid = _named_grid(
        args.seeds,
        args.learner,
        not args.no_tuning,
        list(args.interventions),
        args.scaler,
        missing,
    )
    executor = None
    if args.distributed:
        executor = _make_coordinator(args, missing, dataset_fingerprint)
    telemetry.log_line(f"executing {grid.size()} runs on {args.dataset} ...")
    progress = None
    if not args.quiet:
        progress = lambda done, total, _: print(  # noqa: E731
            f"  {done}/{total}", end="\r", file=sys.stderr
        )
    results = run_grid(
        (frame, spec),
        grid,
        protected_attribute=args.protected,
        results_store=store,
        progress=progress,
        jobs=args.jobs,
        resume=args.resume,
        executor=executor,
        dataset_fingerprint=dataset_fingerprint,
        export=args.export,
        export_tags=args.export_tag,
    )
    if not args.quiet:
        print(file=sys.stderr)
    if executor is not None and executor.stats is not None:
        _print_distributed_summary(executor.stats)
    rows = []
    by_intervention: dict = {}
    for result in results:
        label = result.components["pre_processor"]
        if label == "NoIntervention":
            label = result.components["post_processor"]
        by_intervention.setdefault(label, {"accuracy": [], "di": []})
        by_intervention[label]["accuracy"].append(
            result.test_metrics["overall__accuracy"]
        )
        by_intervention[label]["di"].append(
            result.test_metrics["group__disparate_impact"]
        )
    for label, series in by_intervention.items():
        acc = summary(series["accuracy"])
        di = summary(series["di"])
        rows.append([label, acc["mean"], acc["std"], di["mean"], di["std"]])
    print(format_table(
        ["intervention", "accuracy", "acc_std", "DI", "DI_std"], rows
    ))
    if store:
        print(f"\nper-run records written to {args.output}")
        print(f"run manifest: {args.output}.manifest.json")
    if args.export:
        print(f"best pipeline exported to registry {args.export}")
    return 0


# ----------------------------------------------------------------------
# distributed grid commands
# ----------------------------------------------------------------------
def _make_coordinator(args, missing: Optional[str], store_fingerprint):
    """Build the work-queue executor + manifest for ``grid --distributed``."""
    from .core import DistributedExecutor
    from .core.distributed import parse_address

    host, port = parse_address(args.bind)
    manifest = {
        "version": MANIFEST_VERSION,
        "dataset": args.dataset,
        "size": args.size,
        "protected": args.protected,
        "grid": {
            "seeds": args.seeds,
            "learner": args.learner,
            "tuned": not args.no_tuning,
            "interventions": list(args.interventions),
            "scaler": args.scaler,
            "missing": missing,
        },
        "store_fingerprint": store_fingerprint,
    }
    executor = DistributedExecutor(
        host=host,
        port=port,
        workers=max(0, args.jobs),
        lease_seconds=args.lease_seconds,
        manifest=manifest,
        on_event=_distributed_event,
    )
    host, port = executor.address
    telemetry.log_line(f"coordinator listening on {host}:{port}")
    telemetry.log_line(f"join with: repro grid-worker --connect {host}:{port}")
    return executor


def _distributed_event(payload: dict) -> None:
    """Coordinator observability: one stderr line per lease-queue event.

    Lines go through :func:`telemetry.log_line` — one syscall per whole
    line, so forked workers and coordinator threads sharing the tty can
    never interleave mid-line, and ``--quiet`` silences them together.
    """
    event = payload.get("event")
    if event == "worker-registered":
        line = f"worker {payload['worker']} registered"
    elif event == "lease":
        line = (
            f"lease {payload['lease']} -> {payload['worker']} "
            f"({payload['keys']} keys)"
        )
    elif event == "requeue":
        line = (
            f"requeued {payload['keys']} keys from lease {payload['lease']} "
            f"({payload['reason']})"
        )
    elif event == "complete":
        line = (
            f"lease {payload['lease']} complete: {payload['worker']} "
            f"delivered {payload['keys']} keys"
        )
    elif event == "worker-error":
        line = f"worker {payload['worker']} error: {payload['message']}"
    else:
        return
    telemetry.log_line(f"[coordinator] {line}")


def _print_distributed_summary(stats: dict) -> None:
    workers = stats.get("workers", {})
    telemetry.log_line(
        f"distributed summary: {len(workers)} worker(s) seen, "
        f"{stats['completed']}/{stats['total']} runs merged, "
        f"{stats['requeued']} keys re-queued, "
        f"{stats['duplicates']} duplicates dropped, "
        f"{stats['stale_results']} stale results recovered"
    )
    for name in sorted(workers):
        record = workers[name]
        hits = max(record["runs"] - record["groups"], 0)
        telemetry.log_line(
            f"  {name}: {record['runs']} runs in {record['groups']} "
            f"group(s), prep-cache hits {hits}, "
            f"{record['seconds']:.2f}s busy"
        )


def _cmd_grid_worker(args) -> int:
    from .core import ExecutionPlan, open_store_dataset
    from .core.distributed import (
        PlanMismatchError,
        ProtocolError,
        parse_address,
        worker_loop,
    )

    if args.trace_dir:
        telemetry.configure(trace_dir=args.trace_dir)
    if args.quiet:
        telemetry.set_quiet(True)
    try:
        address = parse_address(args.connect)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2

    def plan_factory(manifest):
        if not isinstance(manifest, dict):
            raise ProtocolError("coordinator sent no usable grid manifest")
        version = manifest.get("version")
        if version != MANIFEST_VERSION:
            raise ProtocolError(
                f"unsupported manifest version {version!r} (this worker "
                f"speaks {MANIFEST_VERSION}); upgrade the older side"
            )
        fingerprint = None
        store_fingerprint = manifest.get("store_fingerprint")
        if store_fingerprint:
            if not args.frame_store:
                raise ProtocolError(
                    "coordinator grid reads from a frame store; pass "
                    "--frame-store DIR pointing at an identical local copy"
                )
            frame, spec, fingerprint = open_store_dataset(
                manifest["dataset"], args.frame_store
            )
            if fingerprint != store_fingerprint:
                raise PlanMismatchError(
                    f"local store fingerprint {fingerprint} does not match "
                    f"the coordinator's {store_fingerprint}; the stores "
                    "hold different data"
                )
        else:
            frame, spec = load_dataset(
                manifest["dataset"], n=manifest.get("size")
            )
        g = manifest["grid"]
        grid = _named_grid(
            g["seeds"],
            g["learner"],
            g["tuned"],
            list(g["interventions"]),
            g["scaler"],
            g["missing"],
        )
        return ExecutionPlan.for_grid(
            frame,
            spec,
            grid,
            protected_attribute=manifest.get("protected"),
            dataset_fingerprint=fingerprint,
        )

    def event(payload: dict) -> None:
        name = payload.pop("worker", "worker")
        kind = payload.pop("event", "?")
        detail = " ".join(f"{k}={v}" for k, v in payload.items())
        telemetry.log_line(f"[{name}] {kind} {detail}".rstrip())

    try:
        stats = worker_loop(
            address,
            plan_factory=plan_factory,
            worker_id=args.worker_id,
            on_event=event,
        )
    except ConnectionRefusedError:
        print(f"no coordinator listening on {args.connect}", file=sys.stderr)
        return 2
    except (PlanMismatchError, ProtocolError, KeyError) as error:
        print(f"grid-worker failed: {error}", file=sys.stderr)
        return 2
    hits = max(stats["runs"] - stats["groups"], 0)
    print(
        f"worker {stats['worker']}: {stats['runs']} runs in "
        f"{stats['groups']} group(s), prep-cache hits {hits}, "
        f"{stats['seconds']:.2f}s busy"
    )
    return 0


def _cmd_trace(args) -> int:
    import json
    import os

    from .telemetry import trace as trace_tools

    if not os.path.isdir(args.trace_dir):
        print(f"no trace directory at {args.trace_dir}", file=sys.stderr)
        return 2
    summary_dict = trace_tools.summarize(args.trace_dir)
    if args.json:
        print(json.dumps(summary_dict, indent=1, sort_keys=True))
    else:
        print(trace_tools.render_report(summary_dict))
    if args.strict:
        problem = trace_tools.check_single_tree(summary_dict)
        if problem is not None:
            print(f"strict check failed: {problem}", file=sys.stderr)
            return 1
    return 0


def _cmd_lint(args) -> int:
    import json
    import os

    from .analysis import lint as lint_tools

    root = args.root
    if root is None:
        import repro

        # repro is a namespace package (no __init__.py), so __file__ is
        # None; __path__ holds the single source directory
        root = os.path.abspath(list(repro.__path__)[0])
    if not os.path.isdir(root):
        print(f"no package directory at {root}", file=sys.stderr)
        return 2
    select = None
    if args.select:
        select = [name.strip() for name in args.select.split(",") if name.strip()]
    try:
        report = lint_tools.lint_paths(root, select=select)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2

    failed = bool(report.findings)

    if args.json:
        payload = dict(report.to_dict(), ok=not failed)
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 1 if failed else 0

    for finding in report.findings:
        print(finding.render())
    print(
        ("FAIL: " if failed else "ok: ")
        + f"{report.files_checked} files, {report.checkers_run} checkers, "
        f"{len(report.findings)} finding(s)"
    )
    return 1 if failed else 0


# ----------------------------------------------------------------------
# serving commands
# ----------------------------------------------------------------------
def _open_registry(path: str):
    """Open an existing registry or exit with a clean error."""
    from .serve import ModelRegistry

    try:
        return ModelRegistry(path, create=False)
    except FileNotFoundError as error:
        print(error, file=sys.stderr)
        raise SystemExit(2) from None


def _registry_op(operation, *args, **kwargs):
    """Run a registry lookup/tag operation; unknown refs exit cleanly."""
    try:
        return operation(*args, **kwargs)
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else error
        print(message, file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_export(args) -> int:
    from .serve import ModelRegistry

    registry = ModelRegistry(args.registry)
    experiment = _build_experiment(args)
    prepared = experiment.prepare()
    trained = experiment.train_candidates(prepared)
    result = experiment.evaluate(prepared, trained)
    record = experiment.export_pipeline(
        prepared, trained, result, registry=registry, tags=args.tag
    )
    print(f"published model {record['model_id']} to {args.registry}")
    if args.tag:
        print(f"tags: {', '.join(args.tag)}")
    print(
        f"test accuracy {result.test_metrics['overall__accuracy']:.4f}  "
        f"disparate impact {result.test_metrics['group__disparate_impact']:.4f}"
    )
    return 0


def _cmd_score(args) -> int:
    import numpy as np

    from .frame import train_validation_test_masks
    from .serve import ScoringEngine

    registry = _open_registry(args.registry)
    pipeline = _registry_op(registry.load_pipeline, args.model)
    engine = ScoringEngine(pipeline)
    meta = pipeline.metadata

    if args.verify:
        if meta.get("dataset") != args.dataset:
            print(
                f"model was trained on {meta.get('dataset')!r}, not "
                f"{args.dataset!r}",
                file=sys.stderr,
            )
            return 2
        frame, _ = load_dataset(args.dataset, n=meta.get("num_rows"))
        _, _, test_mask = train_validation_test_masks(
            frame.num_rows,
            meta.get("train_fraction", 0.7),
            meta.get("validation_fraction", 0.1),
            int(meta["random_seed"]),
        )
        raw_test = frame.mask(test_mask)
        batch = engine.score_frame(raw_test)
        expected = meta.get("verification", {})
        expected_labels = np.asarray(expected.get("test_labels"))
        if not np.array_equal(batch.labels, expected_labels):
            print("FAIL: reloaded predictions differ from the exported run")
            return 1
        expected_scores = expected.get("test_scores")
        if expected_scores is not None and not np.array_equal(
            batch.scores, np.asarray(expected_scores)
        ):
            print("FAIL: reloaded scores differ from the exported run")
            return 1
        print(
            f"OK: {batch.num_scored} test rows scored byte-identically to "
            "the in-process run"
        )
        return 0

    frame, _ = load_dataset(args.dataset, n=args.size)
    batch = engine.score_frame(frame)
    favorable = float((batch.labels == 1.0).mean())
    print(
        f"scored {batch.num_scored}/{frame.num_rows} rows; "
        f"favorable rate {favorable:.4f}"
    )
    if batch.truth is not None:
        metrics = engine.evaluate_batch(batch)
        rows = [[name, metrics.get(name, float("nan"))] for name in _KEY_METRICS]
        print(format_table(["metric", "value"], rows))
    return 0


def _cmd_serve(args) -> int:
    import os

    from .serve import (
        FairnessMonitor,
        ScoringEngine,
        ScoringService,
        make_server,
    )

    registry = _open_registry(args.registry)
    model_id = _registry_op(registry.resolve, args.model)
    # loaded once, pre-fork: in fleet mode every worker shares this
    # artifact copy-on-write instead of re-reading it N times
    pipeline = registry.load_pipeline(model_id)

    cores = os.cpu_count() or 1
    if args.workers > cores:
        print(
            f"warning: --workers {args.workers} exceeds the machine's "
            f"{cores} CPU core(s); extra workers only add memory and "
            "context-switch overhead",
            file=sys.stderr,
        )

    def build_service() -> ScoringService:
        monitor = FairnessMonitor(
            pipeline.protected_attribute, window_size=args.window
        )
        return ScoringService(
            ScoringEngine(pipeline, monitor=monitor),
            model_id=model_id,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
        )

    if args.workers > 1:
        return _serve_fleet(args, build_service, model_id)

    service = build_service()
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"serving model {model_id} on http://{host}:{port}", file=sys.stderr)
    print("routes: GET /healthz  GET /metrics  POST /score", file=sys.stderr)
    if args.max_batch > 1:
        print(
            f"micro-batching: max_batch={args.max_batch} "
            f"max_wait_ms={args.max_wait_ms}",
            file=sys.stderr,
        )
    try:
        server.serve_forever()
    # lint: allow(silent-except) -- Ctrl-C is the documented way to stop
    # `repro serve`; the finally-block runs the orderly shutdown
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.server_close()
        service.close()
    return 0


def _serve_fleet(args, build_service, model_id: str) -> int:
    import signal

    from .serve import ServingFleet

    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    fleet = ServingFleet(
        build_service,
        host=args.host,
        port=args.port,
        workers=args.workers,
        log=log,
    )
    fleet.start()
    print(
        f"serving model {model_id} on http://{fleet.host}:{fleet.port} "
        f"with {args.workers} workers ({fleet.mode})",
        file=sys.stderr,
    )
    print(
        "routes: GET /healthz  GET /metrics  POST /score "
        "(fleet-aggregated on any worker)",
        file=sys.stderr,
    )
    print(
        f"per-worker micro-batching: max_batch={args.max_batch} "
        f"max_wait_ms={args.max_wait_ms}",
        file=sys.stderr,
    )
    signal.signal(signal.SIGTERM, lambda *_: fleet.request_stop())
    signal.signal(signal.SIGINT, lambda *_: fleet.request_stop())
    try:
        fleet.wait()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        fleet.stop()
    return 0


def _cmd_registry(args) -> int:
    registry = _open_registry(args.registry)
    if args.promote:
        _registry_op(registry.promote, args.promote, tag=args.tag)
        print(f"{args.tag} -> {args.promote}")
        return 0
    if args.rollback:
        restored = _registry_op(registry.rollback, tag=args.tag)
        print(f"{args.tag} rolled back to {restored}")
        return 0
    tags = registry.tags()
    reverse: dict = {}
    for tag, model_id in tags.items():
        reverse.setdefault(model_id, []).append(tag)
    rows = []
    for record in registry.list_models():
        model_id = record["model_id"]
        accuracy = record.get("metrics", {}).get("test", {}).get("overall__accuracy")
        rows.append([
            model_id,
            record.get("dataset", "?"),
            "?" if accuracy is None else f"{accuracy:.4f}",
            ",".join(sorted(reverse.get(model_id, []))) or "-",
        ])
    print(format_table(["model", "dataset", "test_acc", "tags"], rows))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
