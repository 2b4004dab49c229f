"""Multi-core serving fleet: port sharing, fleet-wide /healthz and
/metrics aggregation, worker death + respawn, and graceful drain.

These tests fork real worker processes; everything speaks to the fleet
over real HTTP, as a client would."""

import json
import os
import signal
import time
import urllib.error
import urllib.request

import pytest

from repro.core import DecisionTree, Experiment
from repro.datasets import load_dataset
from repro.serve import (
    FairnessMonitor,
    ModelRegistry,
    ScoringEngine,
    ScoringService,
    ServingFleet,
    dumps_strict,
)

def _strict_loads(data):
    def refuse(token):
        raise ValueError(f"non-JSON constant {token!r}")

    return json.loads(data, parse_constant=refuse)


def _get(port, path, timeout=10):
    return _strict_loads(
        urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=timeout
        ).read()
    )


def _post_raw(port, payload, timeout=30):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/score",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    return urllib.request.urlopen(request, timeout=timeout).read()


def _post(port, payload, timeout=30):
    return _strict_loads(_post_raw(port, payload, timeout))


def _post_with_retry(port, payload, attempts=20):
    """Retry connection-level failures: during a worker kill the kernel
    may briefly route a connection at the dying socket."""
    for attempt in range(attempts):
        try:
            return _post(port, payload)
        except (urllib.error.URLError, ConnectionError, OSError):
            time.sleep(0.1)
    raise RuntimeError(f"no worker answered after {attempts} attempts")


def _wait_healthy(port, workers, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            health = _get(port, "/healthz", timeout=2)
            if health["fleet"]["workers_alive"] == workers:
                return health
        except (urllib.error.URLError, ConnectionError, OSError):
            pass
        time.sleep(0.1)
    raise RuntimeError(f"fleet of {workers} never became healthy")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    frame, spec = load_dataset("germancredit")
    experiment = Experiment(
        frame=frame,
        spec=spec,
        random_seed=5,
        learner=DecisionTree(tuned=False),
    )
    prepared = experiment.prepare()
    trained = experiment.train_candidates(prepared)
    result = experiment.evaluate(prepared, trained)
    root = str(tmp_path_factory.mktemp("fleet-registry"))
    registry = ModelRegistry(root)
    experiment.export_pipeline(prepared, trained, result, registry=registry)
    model_id = registry.list_models()[0]["model_id"]
    return ModelRegistry(root).load_pipeline(model_id), frame, spec


def _factory(pipeline):
    def build():
        monitor = FairnessMonitor(
            pipeline.protected_attribute, window_size=500
        )
        return ScoringService(
            ScoringEngine(pipeline, monitor=monitor),
            model_id="fleet-test",
            max_batch=16,
            max_wait_ms=1.0,
        )

    return build


def _records(frame, spec, count):
    complete = frame.dropna(spec.feature_columns)
    decoded = {c: complete.col(c).values for c in complete.columns}
    return [
        {
            c: (v.item() if hasattr(v, "item") else v)
            for c, v in ((name, decoded[name][i]) for name in complete.columns)
        }
        for i in range(count)
    ]


@pytest.fixture()
def fleet(pipeline):
    artifact, _, _ = pipeline
    fleet = ServingFleet(_factory(artifact), port=0, workers=2)
    try:
        _, port = fleet.start()
        _wait_healthy(port, 2)
        yield fleet, port
    finally:
        fleet.stop()


class TestFleetServing:
    def test_healthz_reports_per_worker_liveness(self, fleet):
        _, port = fleet
        health = _get(port, "/healthz")
        assert health["status"] == "ok"
        assert health["fleet"]["size"] == 2
        assert health["fleet"]["workers_alive"] == 2
        assert len(health["workers"]) == 2
        pids = set()
        for worker in health["workers"]:
            assert worker["status"] == "ok"
            assert worker["uptime_seconds"] >= 0.0
            assert worker["queue_depth"] == 0.0
            pids.add(worker["pid"])
        assert len(pids) == 2  # two distinct processes
        assert os.getpid() not in pids

    def test_fleet_responses_byte_identical_to_score_record(self, fleet, pipeline):
        artifact, frame, spec = pipeline
        _, port = fleet
        reference = ScoringEngine(artifact)
        for record in _records(frame, spec, 6):
            expected = dumps_strict(
                {"records_scored": 1, **reference.score_record(record)}
            )
            assert _post_raw(port, record) == expected

    def test_metrics_aggregate_across_workers(self, fleet, pipeline):
        _, frame, spec = pipeline
        _, port = fleet
        records = _records(frame, spec, 12)
        for record in records:
            assert _post(port, record)["records_scored"] == 1
        out = _post(port, {"records": records})
        assert out["records_scored"] == len(records)
        with pytest.raises(urllib.error.HTTPError) as caught:
            _post(port, {"records": "nope"})
        assert caught.value.code == 422

        metrics = _get(port, "/metrics")
        assert metrics["fleet"]["size"] == 2
        assert metrics["requests"] == len(records) + 2
        assert metrics["errors"] == 1
        assert metrics["requests"] == metrics["successes"] + metrics["errors"]
        assert metrics["records_scored"] == 2 * len(records)
        # the merged monitor saw every record the whole fleet scored
        assert metrics["monitor"]["total_observed"] == float(2 * len(records))
        assert isinstance(metrics["alerts"], list)
        assert len(metrics["workers"]) == 2
        # per-request bookkeeping happened on the workers, not here
        assert sum(w["requests"] for w in metrics["workers"]) == metrics["requests"]

    def test_killed_worker_respawns_and_survivors_keep_serving(
        self, fleet, pipeline
    ):
        _, frame, spec = pipeline
        _, port = fleet
        record = _records(frame, spec, 1)[0]
        victim = _get(port, "/healthz")["workers"][0]["pid"]
        os.kill(victim, signal.SIGKILL)
        # survivors answer throughout (retry covers the kill window)
        for _ in range(5):
            assert _post_with_retry(port, record)["records_scored"] == 1
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            health = _get(port, "/healthz")
            pids = [
                w["pid"] for w in health["workers"] if w["status"] == "ok"
            ]
            if health["fleet"]["workers_alive"] == 2 and victim not in pids:
                break
            time.sleep(0.1)
        else:
            raise AssertionError("killed worker was never respawned")
        assert _post_with_retry(port, record)["records_scored"] == 1


class TestFleetLifecycle:
    def test_graceful_stop_closes_the_port(self, pipeline):
        artifact, frame, spec = pipeline
        logged = []
        fleet = ServingFleet(
            _factory(artifact), port=0, workers=2, drain_timeout=5.0,
            log=logged.append,
        )
        _, port = fleet.start()
        _wait_healthy(port, 2)
        for record in _records(frame, spec, 4):
            assert _post(port, record)["records_scored"] == 1
        control_paths = list(fleet.control_paths)
        started = time.monotonic()
        fleet.stop()
        # every worker drains on SIGTERM; none has to be SIGKILLed
        assert time.monotonic() - started < fleet.drain_timeout
        assert not [line for line in logged if "ignored drain" in line]
        assert "fleet stopped" in logged
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            _get(port, "/healthz", timeout=2)
        for path in control_paths:
            assert not os.path.exists(path)
        fleet.stop()  # idempotent

    def test_worker_count_validation(self, pipeline):
        artifact, _, _ = pipeline
        with pytest.raises(ValueError, match="workers"):
            ServingFleet(_factory(artifact), workers=0)
