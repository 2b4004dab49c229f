"""Runtime monitoring and the HTTP scoring service."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import DecisionTree, Experiment
from repro.datasets import load_dataset
from repro.fairness import BinaryLabelDataset, ClassificationMetric
from repro.fairness.metrics import BinaryLabelDatasetMetric
from repro.serve import (
    FairnessMonitor,
    ModelRegistry,
    ScoringEngine,
    ScoringService,
    make_server,
)


class TestFairnessMonitor:
    def test_windowed_di_matches_metric_class(self):
        rng = np.random.default_rng(0)
        monitor = FairnessMonitor("sex", window_size=1000)
        groups = (rng.random(400) < 0.5).astype(float)
        predictions = (rng.random(400) < 0.3 + 0.2 * groups).astype(float)
        monitor.observe_batch(groups=groups, predictions=predictions)
        snap = monitor.snapshot()
        data = BinaryLabelDataset(
            features=np.zeros((400, 0)),
            labels=predictions,
            protected_attributes=groups.reshape(-1, 1),
            protected_attribute_names=["sex"],
        )
        metric = BinaryLabelDatasetMetric(
            data,
            unprivileged_groups=[{"sex": 0.0}],
            privileged_groups=[{"sex": 1.0}],
        )
        assert snap["disparate_impact"] == metric.disparate_impact()
        assert (
            snap["statistical_parity_difference"]
            == metric.statistical_parity_difference()
        )

    def test_equal_opportunity_gap_matches_classification_metric(self):
        rng = np.random.default_rng(1)
        monitor = FairnessMonitor("sex", window_size=1000)
        groups = (rng.random(300) < 0.5).astype(float)
        truth = (rng.random(300) < 0.4).astype(float)
        predictions = np.where(rng.random(300) < 0.8, truth, 1.0 - truth)
        monitor.observe_batch(
            groups=groups, predictions=predictions, true_labels=truth
        )
        snap = monitor.snapshot()
        base = BinaryLabelDataset(
            features=np.zeros((300, 0)),
            labels=truth,
            protected_attributes=groups.reshape(-1, 1),
            protected_attribute_names=["sex"],
        )
        metric = ClassificationMetric(
            base,
            base.with_predictions(labels=predictions),
            unprivileged_groups=[{"sex": 0.0}],
            privileged_groups=[{"sex": 1.0}],
        )
        assert (
            snap["equal_opportunity_difference"]
            == metric.equal_opportunity_difference()
        )
        assert snap["accuracy"] == (predictions == truth).mean()

    def test_sliding_window_evicts_old_records(self):
        monitor = FairnessMonitor("sex", window_size=10)
        monitor.observe_batch(
            groups=np.ones(30), predictions=np.ones(30)
        )
        snap = monitor.snapshot()
        assert snap["window"] == 10
        assert snap["total_observed"] == 30

    def test_alerts_fire_and_clear(self):
        monitor = FairnessMonitor(
            "sex",
            window_size=200,
            min_observations=10,
            thresholds={"disparate_impact": (0.8, None)},
        )
        # privileged always favorable, unprivileged never: DI = 0
        groups = np.asarray([1.0, 0.0] * 50)
        monitor.observe_batch(groups=groups, predictions=groups.copy())
        alerts = monitor.check()
        assert len(alerts) == 1
        assert alerts[0].metric == "disparate_impact"
        assert "outside" in alerts[0].describe()
        monitor.reset()
        assert monitor.check() == []

    def test_min_observations_guard(self):
        monitor = FairnessMonitor(
            "sex",
            min_observations=50,
            thresholds={"disparate_impact": (0.8, None)},
        )
        groups = np.asarray([1.0, 0.0] * 10)
        monitor.observe_batch(groups=groups, predictions=groups.copy())
        assert monitor.check() == []

    def test_single_group_window_skips_group_metrics(self):
        monitor = FairnessMonitor("sex")
        monitor.observe_batch(groups=np.ones(60), predictions=np.ones(60))
        snap = monitor.snapshot()
        assert "disparate_impact" not in snap
        assert monitor.check() == []


@pytest.fixture(scope="module")
def service():
    frame, spec = load_dataset("germancredit")
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        experiment = Experiment(
            frame=frame, spec=spec, random_seed=5, learner=DecisionTree(tuned=False)
        )
        prepared = experiment.prepare()
        trained = experiment.train_candidates(prepared)
        result = experiment.evaluate(prepared, trained)
        registry = ModelRegistry(root)
        experiment.export_pipeline(
            prepared, trained, result, registry=registry, tags=["production"]
        )
        pipeline = registry.load_pipeline("production")
        monitor = FairnessMonitor(pipeline.protected_attribute, window_size=500)
        engine = ScoringEngine(pipeline, monitor=monitor)
        yield ScoringService(engine, model_id="m1"), frame, spec


def _records(frame, count):
    decoded = {c: frame.col(c).values for c in frame.columns}
    out = []
    for i in range(count):
        row = {}
        for name in frame.columns:
            value = decoded[name][i]
            row[name] = value.item() if hasattr(value, "item") else value
        out.append(row)
    return out


class TestScoringService:
    def test_single_record(self, service):
        svc, frame, spec = service
        out = svc.score(_records(frame, 1)[0])
        assert out["records_scored"] == 1
        assert out["label"] in (0.0, 1.0)

    def test_batch(self, service):
        svc, frame, spec = service
        out = svc.score({"records": _records(frame, 8)})
        assert out["records_scored"] == 8
        assert len(out["labels"]) == 8

    def test_invalid_payload(self, service):
        svc, _, _ = service
        with pytest.raises(ValueError):
            svc.score([1, 2, 3])
        assert svc.metrics()["errors"] >= 1

    def test_metrics_and_health(self, service):
        svc, frame, _ = service
        svc.score({"records": _records(frame, 4)})
        health = svc.health()
        assert health["status"] == "ok"
        assert health["model_id"] == "m1"
        metrics = svc.metrics()
        assert metrics["requests"] >= 1
        assert metrics["records_scored"] >= 4
        assert "monitor" in metrics
        assert "alerts" in metrics
        assert "latency_ms" in metrics


class TestHTTP:
    def test_http_roundtrip(self, service):
        svc, frame, spec = service
        server = make_server(svc, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{port}"
        try:
            health = json.loads(urllib.request.urlopen(f"{base}/healthz").read())
            assert health["status"] == "ok"

            payload = json.dumps({"records": _records(frame, 3)}).encode()
            request = urllib.request.Request(
                f"{base}/score",
                data=payload,
                headers={"Content-Type": "application/json"},
            )
            scored = json.loads(urllib.request.urlopen(request).read())
            assert scored["records_scored"] == 3

            metrics = json.loads(urllib.request.urlopen(f"{base}/metrics").read())
            assert metrics["records_scored"] >= 3

            response = urllib.request.urlopen(
                f"{base}/metrics?format=prometheus"
            )
            assert response.headers["Content-Type"].startswith("text/plain")
            exposition = response.read().decode()
            assert "# TYPE repro_serve_requests_total counter" in exposition
            assert "repro_serve_request_latency_ms_bucket" in exposition

            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/nope")
            assert err.value.code == 404

            bad = urllib.request.Request(
                f"{base}/score",
                data=b'{"records": "nope"}',
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(bad)
            assert err.value.code == 422
        finally:
            server.shutdown()
            server.server_close()

    def test_score_route_ignores_the_query_string(self, service):
        svc, frame, _ = service
        server = make_server(svc, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        record = json.dumps(_records(frame, 1)[0]).encode()

        def post(path):
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}{path}",
                data=record,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request) as response:
                return response.status, response.read()

        try:
            plain = post("/score")
            assert plain[0] == 200
            assert post("/score?trace=1") == plain
        finally:
            server.shutdown()
            server.server_close()
