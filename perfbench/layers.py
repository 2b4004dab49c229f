"""Per-layer metrics computed from the benchmark's own spans.

Every workload prints every name below; a layer a workload never calls
reads 0. Sweep times are per traced pass. Serve times and counts cover the
traced timed phases, except ``datasets.load_s`` and
``serve.registry.*``, which happen once in set-up.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import common
import tracing

PER_LAYER = [
    ("datasets.load_s", "s"),
    ("core.executors.prep_reuse_ratio", "ratio"),
    ("core.experiment.prepare_splits_s", "s"),
    ("core.experiment.prepare_s", "s"),
    ("core.experiment.train_candidates_s", "s"),
    ("core.experiment.evaluate_s", "s"),
    ("core.missing_values.fit_calls", "count"),
    ("core.missing_values.fit_s", "s"),
    ("core.missing_values.handle_missing_s", "s"),
    ("core.featurization.transform_s", "s"),
    ("core.interventions.pre_s", "s"),
    ("core.interventions.post_s", "s"),
    ("learn.model_selection.search_calls", "count"),
    ("learn.model_selection.search_self_s", "s"),
    ("learn.model_selection.fits_per_candidate", "ratio"),
    ("learn.tree.fit_calls", "count"),
    ("learn.tree.fit_self_s", "s"),
    ("learn.tree.predict_s", "s"),
    ("learn.linear.fit_calls", "count"),
    ("learn.linear.fit_self_s", "s"),
    ("fairness.metrics.calls", "count"),
    ("fairness.metrics.all_metrics_s", "s"),
    ("core.results.extend_s", "s"),
    ("serve.registry.publish_s", "s"),
    ("serve.registry.load_pipeline_s", "s"),
    ("serve.service.score_self_us", "us"),
    ("serve.service.outside_score_ms", "ms"),
    ("serve.service.metrics_scrape_ms", "ms"),
    ("serve.batching.mean_batch_size", "count"),
    ("serve.batching.wait_us", "us"),
    ("serve.scoring.score_record_us", "us"),
    ("serve.scoring.score_frame_ms", "ms"),
    ("serve.scoring.rows_per_frame", "count"),
    ("serve.monitor.observe_us", "us"),
    ("serve.monitor.observe_batch_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
]
UNITS = dict(PER_LAYER)


def _finish(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    unknown = set(values) - set(UNITS)
    if unknown:
        raise common.BenchmarkError(f"unlisted per-layer metrics {sorted(unknown)}")
    return {
        name: common.metric(values.get(name, 0.0), unit) for name, unit in PER_LAYER
    }


def _median_or_zero(values: Sequence[float]) -> float:
    return common.median(values) if values else 0.0


def _layer_totals(index: tracing.SpanIndex, spans, per: float) -> Dict[str, float]:
    """Layer times and counts shared by sweeps and serve, divided by ``per``."""

    def total(name, measure=index.duration):
        return sum(measure(s) for s in spans if s[1] == name) / per

    def count(name):
        return sum(1 for s in spans if s[1] == name) / per

    return {
        "core.missing_values.fit_calls": count("core.missing_values.fit"),
        "core.missing_values.fit_s": total("core.missing_values.fit"),
        "core.missing_values.handle_missing_s": total("core.missing_values.handle_missing"),
        "core.featurization.transform_s": total("core.featurization.transform"),
        "core.interventions.pre_s": total("core.interventions.pre"),
        "core.interventions.post_s": total("core.interventions.post"),
        "learn.tree.fit_calls": count("learn.tree.fit"),
        "learn.tree.fit_self_s": total("learn.tree.fit", index.self_time),
        "learn.tree.predict_s": total("learn.tree.predict"),
        "learn.linear.fit_calls": count("learn.linear.fit"),
        "learn.linear.fit_self_s": total("learn.linear.fit", index.self_time),
    }


def sweep_metrics(spans, overhead_pct: float):
    """Per-layer metrics of a sweep run from its traced passes."""
    index = tracing.SpanIndex(spans)
    passes = index.named("bench.pass")
    pass_ids = {p[0] for p in passes}
    in_pass = [s for s in index.spans if index.root(s)[0] in pass_ids]
    n = float(len(passes))

    def of(name):
        return [s for s in in_pass if s[1] == name]

    runs = len(of("core.experiment.evaluate"))
    searches = of("learn.model_selection.search")
    search_ids = {s[0] for s in searches}
    fits_in_search = sum(
        1
        for s in in_pass
        if s[1] in ("learn.tree.fit", "learn.linear.fit")
        and _has_ancestor(index, s, search_ids)
    )
    slots = sum(s[6] for s in searches)
    covered = sum(index.duration(s) for s in in_pass if s[4] in pass_ids)
    wall = sum(index.duration(p) for p in passes)
    values = _layer_totals(index, in_pass, n)
    values.update({
        "datasets.load_s": _median_or_zero(
            [index.duration(s) for s in index.named("datasets.load")]
        ),
        "core.executors.prep_reuse_ratio": (
            1.0 - len(of("core.experiment.prepare_splits")) / runs if runs else 0.0
        ),
        "learn.model_selection.search_calls": len(searches) / n,
        "learn.model_selection.search_self_s": sum(index.self_time(s) for s in searches) / n,
        "learn.model_selection.fits_per_candidate": fits_in_search / slots if slots else 0.0,
        "fairness.metrics.calls": len(of("fairness.metrics.all_metrics")) / n,
        "fairness.metrics.all_metrics_s": sum(
            index.duration(s) for s in of("fairness.metrics.all_metrics")
        ) / n,
        "core.results.extend_s": sum(index.duration(s) for s in of("core.results.extend")) / n,
        "trace.overhead_pct": overhead_pct,
        "trace.unattributed_pct": 100.0 * (1.0 - covered / wall),
    })
    for stage in ("prepare_splits", "prepare", "train_candidates", "evaluate"):
        values[f"core.experiment.{stage}_s"] = (
            sum(index.duration(s) for s in of(f"core.experiment.{stage}")) / n
        )
    return _finish(values)


def _has_ancestor(index, span, ids) -> bool:
    parent = span[4]
    while parent is not None:
        if parent in ids:
            return True
        ancestor = index.by_id.get(parent)
        parent = ancestor[4] if ancestor else None
    return False


def serve_metrics(
    client_spans: Sequence,
    server_spans: Sequence,
    windows: List[tuple],
    requests: List[tuple],
    overhead_pct: float,
):
    """Per-layer metrics of the serve workload.

    ``client_spans`` are the benchmark process's set-up spans, and
    ``server_spans`` the traced server's. ``windows`` are the traced
    phases' (start, end) perf_counter intervals, and ``requests`` the
    client's (request id, sent, received) samples in them.
    """
    client = tracing.SpanIndex(client_spans)
    server = tracing.SpanIndex(server_spans)

    def in_window(span):
        return any(start <= span[2] < end for start, end in windows)

    timed = [s for s in server.spans if in_window(s)]

    def durations(name, scale=1.0):
        return [server.duration(s) * scale for s in timed if s[1] == name]

    score_spans = [s for s in timed if s[1] == "serve.service.score"]
    score_by_rid = {s[5]: server.duration(s) for s in score_spans if s[5] is not None}
    batches = [s for s in timed if s[1] == "serve.batching.batch"]
    engine_time = {}
    for span in timed:
        if span[1] in ("serve.scoring.score_frame", "serve.scoring.score_record"):
            engine_time.setdefault(span[4], server.duration(span))
    batch_engine = {}
    for batch in batches:
        for rid in batch[6]:
            batch_engine[rid] = engine_time.get(batch[0], 0.0)
    waits = [
        (server.duration(s) - batch_engine[s[5]]) * 1e6
        for s in timed
        if s[1] == "serve.batching.score" and s[5] in batch_engine
    ]
    matched = [(rid, received - sent) for rid, sent, received in requests if rid in score_by_rid]
    client_latency = [latency for _, latency in matched]
    client_total = sum(received - sent for _, sent, received in requests)
    covered = sum(score_by_rid[rid] for rid, _ in matched)
    frames = [s for s in timed if s[1] == "serve.scoring.score_frame"]
    values = _layer_totals(server, timed, 1.0)
    values.update({
        "datasets.load_s": _median_or_zero(
            [client.duration(s) for s in client.named("datasets.load")]
        ),
        "serve.registry.publish_s": _median_or_zero(
            [client.duration(s) for s in client.named("serve.registry.publish")]
        ),
        "serve.registry.load_pipeline_s": _median_or_zero(
            [server.duration(s) for s in server.named("serve.registry.load_pipeline")]
        ),
        "serve.service.score_self_us": _median_or_zero(
            [server.self_time(s) * 1e6 for s in score_spans]
        ),
        "serve.service.outside_score_ms": (
            1000.0 * (common.median(client_latency) - common.median(list(score_by_rid.values())))
            if client_latency
            else 0.0
        ),
        "serve.service.metrics_scrape_ms": _median_or_zero(
            [server.duration(s) * 1000.0 for s in server.named("serve.service.metrics")]
        ),
        "serve.batching.mean_batch_size": (
            sum(len(b[6]) for b in batches) / len(batches) if batches else 0.0
        ),
        "serve.batching.wait_us": _median_or_zero(waits),
        "serve.scoring.score_record_us": _median_or_zero(
            durations("serve.scoring.score_record", 1e6)
        ),
        "serve.scoring.score_frame_ms": _median_or_zero(
            durations("serve.scoring.score_frame", 1e3)
        ),
        "serve.scoring.rows_per_frame": (
            sum(s[6] for s in frames) / len(frames) if frames else 0.0
        ),
        "serve.monitor.observe_us": _median_or_zero(durations("serve.monitor.observe", 1e6)),
        "serve.monitor.observe_batch_us": _median_or_zero(
            durations("serve.monitor.observe_batch", 1e6)
        ),
        "trace.overhead_pct": overhead_pct,
        "trace.unattributed_pct": (
            100.0 * (1.0 - covered / client_total) if client_total else 0.0
        ),
    })
    return _finish(values)
