"""Telemetry through the grid engine: run manifests, byte-identity of
results with tracing on, and distributed traces stitching into one tree
whose per-stage totals reconcile with the coordinator's accounting."""

import json
import os

import pytest

from repro import telemetry
from repro.core import (
    DistributedExecutor,
    GridSpec,
    LogisticRegression,
    NoIntervention,
    ResultsStore,
    SerialExecutor,
    run_grid,
)
from repro.core.runner import RUN_MANIFEST_VERSION, manifest_path
from repro.telemetry import trace as trace_tools


def small_grid():
    return GridSpec(
        seeds=[1, 2],
        learners=[lambda: LogisticRegression(tuned=False)],
        interventions=[NoIntervention],
    )


@pytest.fixture(scope="module")
def german():
    from repro.datasets import load_dataset

    return load_dataset("germancredit")


@pytest.fixture(autouse=True)
def clean_telemetry(monkeypatch):
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
    telemetry.reset_for_tests()
    yield
    telemetry.reset_for_tests()


class TestRunManifest:
    def test_grid_run_writes_manifest_next_to_store(self, german, tmp_path):
        store = ResultsStore(str(tmp_path / "results.jsonl"))
        results = run_grid(german, small_grid(), results_store=store)
        path = manifest_path(store)
        assert path == str(tmp_path / "results.jsonl.manifest.json")
        with open(path) as handle:
            manifest = json.load(handle)
        assert manifest["manifest_version"] == RUN_MANIFEST_VERSION == 2
        assert manifest["dataset"] == "germancredit"
        assert manifest["executor"] == "SerialExecutor"
        assert manifest["grid_size"] == len(results) == 2
        assert manifest["run_keys"] == [r.run_key for r in results]
        assert manifest["prep_groups"] == len(manifest["prep_keys"])
        assert manifest["wall_seconds"] > 0
        assert manifest["results_path"] == "results.jsonl"
        assert manifest["telemetry"]["tracing"] is False

    def test_manifest_stage_timings_when_aggregating(self, german, tmp_path):
        telemetry.configure(aggregate=True)
        store = ResultsStore(str(tmp_path / "results.jsonl"))
        run_grid(german, small_grid(), results_store=store)
        with open(manifest_path(store)) as handle:
            manifest = json.load(handle)
        timings = manifest["stage_timings"]
        assert timings["stage.train"]["count"] == 2
        assert timings["stage.evaluate"]["count"] == 2
        assert timings["grid.run"]["count"] == 1
        assert timings["stage.train"]["total_s"] >= 0

    def test_no_manifest_without_store(self, german, tmp_path):
        run_grid(german, small_grid())
        assert not any(
            name.endswith(".manifest.json") for name in os.listdir(tmp_path)
        )

    def test_manifest_is_rewritten_whole_and_parseable(self, german, tmp_path):
        store = ResultsStore(str(tmp_path / "results.jsonl"))
        run_grid(german, small_grid(), results_store=store)
        first = json.load(open(manifest_path(store)))
        run_grid(german, small_grid(), results_store=store, resume=True)
        second = json.load(open(manifest_path(store)))
        assert second["run_keys"] == first["run_keys"]
        # no temp files left behind by the atomic write
        leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        assert leftovers == []


class TestTracedGridIdentity:
    def test_results_identical_with_tracing_on(self, german, tmp_path):
        baseline = run_grid(german, small_grid(), executor=SerialExecutor())
        telemetry.reset_for_tests()
        telemetry.configure(trace_dir=str(tmp_path / "trace"))
        traced = run_grid(german, small_grid(), executor=SerialExecutor())
        assert [r.to_json() for r in traced] == [
            r.to_json() for r in baseline
        ]

    def test_serial_trace_is_one_tree_with_full_stage_coverage(
        self, german, tmp_path
    ):
        telemetry.configure(trace_dir=str(tmp_path / "trace"))
        run_grid(german, small_grid(), executor=SerialExecutor())
        summary = trace_tools.summarize(str(tmp_path / "trace"))
        assert trace_tools.check_single_tree(summary) is None
        totals = summary["stage_totals"]
        assert totals["grid.run"]["count"] == 1
        assert totals["stage.train"]["count"] == 2
        assert totals["stage.evaluate"]["count"] == 2
        assert totals["stage.prepare"]["count"] == 2
        # the root bounds every stage underneath it
        assert totals["grid.run"]["max_s"] >= totals["stage.train"]["max_s"]


class TestDistributedTraceStitching:
    def test_two_worker_trace_reconciles_with_coordinator_stats(
        self, german, tmp_path
    ):
        telemetry.configure(trace_dir=str(tmp_path / "trace"))
        executor = DistributedExecutor(workers=2, lease_seconds=10.0)
        results = run_grid(german, small_grid(), executor=executor)
        assert len(results) == 2

        summary = trace_tools.summarize(str(tmp_path / "trace"))
        # the acceptance bar: every process's spans stitch into exactly
        # one tree rooted at the coordinator's grid.run span
        assert trace_tools.check_single_tree(summary) is None
        assert len(summary["processes"]) >= 2

        stats = executor.stats
        totals = summary["stage_totals"]
        assert totals["stage.train"]["count"] == stats["completed"] == 2
        assert (
            totals["distributed.lease"]["count"]
            == sum(w["groups"] for w in stats["workers"].values())
        )
        assert summary["event_counts"]["distributed.complete"] == 2

    def test_distributed_manifest_records_lease_stats(self, german, tmp_path):
        store = ResultsStore(str(tmp_path / "results.jsonl"))
        executor = DistributedExecutor(workers=2, lease_seconds=10.0)
        run_grid(german, small_grid(), executor=executor, results_store=store)
        with open(manifest_path(store)) as handle:
            manifest = json.load(handle)
        assert manifest["executor"] == "DistributedExecutor"
        assert manifest["distributed"]["completed"] == 2
        assert manifest["distributed"]["total"] == 2
        for record in manifest["distributed"]["workers"].values():
            assert sorted(record) == ["groups", "runs", "seconds"]
