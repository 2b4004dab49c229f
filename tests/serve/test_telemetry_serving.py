"""Serving-side telemetry: fleet /metrics aggregation when workers die
mid-scrape, connection-handler error accounting, the /metrics payload
derived from registry states, and its Prometheus exposition."""

import json
import socket
import threading

import pytest

from repro import telemetry
from repro.serve.fleet import FleetView, _ControlServer, _read_control_state
from repro.serve.service import (
    ScoringService,
    handle_connection_error,
    metrics_payload,
    render_exposition,
)
import repro.serve.service as service_module


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.reset_for_tests()
    yield
    telemetry.reset_for_tests()


def _worker_state(requests, errors, records=None, pid=1000, handler_errors=0):
    """A worker state dict in ScoringService.state() form: the request
    counts live only in its telemetry registry state."""
    return {
        "pid": pid,
        "inflight": 0,
        "uptime_seconds": 1.0,
        "queue_depth": 0.0,
        "telemetry": {
            "counters": {
                "serve.successes": requests - errors,
                "serve.errors": errors,
                "serve.records_scored": (
                    records if records is not None else requests
                ),
                "serve.handler_errors": handler_errors,
            },
            "gauges": {},
            "histograms": {},
        },
    }


class _FakeService:
    """Stands in for the handling worker's own ScoringService."""

    def __init__(self, state):
        self._state = state

    def state(self):
        return dict(self._state)


class TestFleetViewDeadWorkers:
    def _fleet(self, tmp_path, sibling_states):
        """Index-0 view over len(sibling_states)+1 workers; siblings get
        real control sockets serving the given states."""
        paths = [str(tmp_path / f"w{i}.sock") for i in range(len(sibling_states) + 1)]
        servers = []
        for i, state in enumerate(sibling_states, start=1):
            if state is None:
                continue  # dead worker: no socket ever created
            server = _ControlServer(paths[i], (lambda s: lambda: s)(state))
            server.start()
            servers.append(server)
        view = FleetView(0, paths)
        return view, paths, servers

    def test_dead_worker_is_skipped_and_invariant_holds(self, tmp_path):
        own = _worker_state(10, 2, pid=1)
        view, _, servers = self._fleet(
            tmp_path, [_worker_state(7, 1, pid=2), None]
        )
        try:
            out = view.metrics(_FakeService(own))
        finally:
            for server in servers:
                server.stop()
        assert out["fleet"]["workers_alive"] == 2
        assert out["workers"][2]["status"] == "unreachable"
        assert out["requests"] == 17
        assert out["errors"] == 3
        assert out["successes"] == 14
        # the fleet-wide invariant survives a dead worker: sums only
        # cover reachable states, each internally consistent
        assert out["requests"] == out["errors"] + out["successes"]

    def test_stale_socket_file_is_skipped(self, tmp_path):
        """A worker that died leaves its socket file behind; connecting
        gets ECONNREFUSED and the scrape must treat it as unreachable."""
        stale_path = str(tmp_path / "stale.sock")
        leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        leftover.bind(stale_path)
        leftover.close()  # bound but never listening: file persists

        own = _worker_state(5, 0, pid=1)
        view = FleetView(0, [str(tmp_path / "self.sock"), stale_path])
        out = view.metrics(_FakeService(own))
        assert out["workers"][1]["status"] == "unreachable"
        assert out["requests"] == 5
        assert out["requests"] == out["errors"] + out["successes"]

    def test_worker_dying_mid_payload_is_skipped(self, tmp_path):
        """A truncated state document (worker killed mid-send) must not
        poison the aggregate."""
        path = str(tmp_path / "torn.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(1)

        def half_send():
            conn, _ = listener.accept()
            conn.sendall(b'{"requests": 9, "succ')
            conn.close()

        thread = threading.Thread(target=half_send, daemon=True)
        thread.start()
        try:
            assert _read_control_state(path) is None
        finally:
            listener.close()
        own = _worker_state(3, 1, pid=1)
        view = FleetView(0, [str(tmp_path / "self.sock"), path])
        out = view.metrics(_FakeService(own))
        assert out["workers"][1]["status"] == "unreachable"
        assert out["requests"] == out["errors"] + out["successes"] == 3

    def test_telemetry_and_handler_errors_merge_fleet_wide(self, tmp_path):
        own = _worker_state(4, 1, pid=1, handler_errors=2)
        sibling = _worker_state(6, 2, pid=2, handler_errors=3)
        view, _, servers = self._fleet(tmp_path, [sibling])
        try:
            out = view.metrics(_FakeService(own))
        finally:
            for server in servers:
                server.stop()
        assert out["handler_errors"] == 5
        assert out["telemetry"]["counters"]["serve.errors"] == 3
        # per-worker summaries come from each worker's own registry state
        assert [w["requests"] for w in out["workers"]] == [4, 6]


class TestHandleConnectionError:
    def test_counts_and_logs_structured_line(self, capfd, monkeypatch):
        monkeypatch.setattr(
            service_module,
            "_HANDLER_ERROR_LOG",
            telemetry.RateLimitedLog(rate=5.0, burst=10),
        )
        try:
            raise ConnectionResetError("peer vanished")
        except ConnectionResetError:
            handle_connection_error(("10.0.0.9", 54321))
        assert telemetry.counter("serve.handler_errors").value == 1
        line = capfd.readouterr().err.strip()
        record = json.loads(line)
        assert record["event"] == "serve.handler_error"
        assert record["client"] == "10.0.0.9:54321"
        assert "ConnectionResetError" in record["error"]

    def test_storm_is_rate_limited_but_fully_counted(self, capfd, monkeypatch):
        clock = [0.0]
        monkeypatch.setattr(
            service_module,
            "_HANDLER_ERROR_LOG",
            telemetry.RateLimitedLog(
                rate=1.0,
                burst=3,
                suppressed_counter="serve.handler_errors_suppressed",
                clock=lambda: clock[0],
            ),
        )
        for _ in range(10):
            try:
                raise OSError("storm")
            except OSError:
                handle_connection_error(None)
        # every failure is counted even when the tty line is suppressed
        assert telemetry.counter("serve.handler_errors").value == 10
        assert telemetry.counter("serve.handler_errors_suppressed").value == 7
        lines = [l for l in capfd.readouterr().err.splitlines() if l.strip()]
        assert len(lines) == 3


class TestRenderExposition:
    def test_local_payload_renders_service_counters(self):
        text = render_exposition(
            metrics_payload([_worker_state(12, 2, records=40)])
        )
        assert "repro_serve_requests_total 12" in text
        assert "repro_serve_successes_total 10" in text
        assert "repro_serve_errors_total 2" in text
        assert "repro_serve_records_scored_total 40" in text

    def test_fleet_payload_renders_gauges_and_merged_telemetry(self):
        metrics = {
            "requests": 20,
            "errors": 1,
            "records_scored": 19,
            "fleet": {"size": 4, "workers_alive": 3},
            "workers": [{"index": 0, "status": "ok"}],
            "telemetry": {
                "counters": {"serve.handler_errors": 6},
                "gauges": {"serve.batch_queue_depth": 2.0},
                "histograms": {
                    "serve.request_latency_ms": {
                        "bounds": [1.0, 5.0],
                        "counts": [3, 1, 0],
                        "sum": 6.0,
                        "count": 4,
                    }
                },
            },
        }
        text = render_exposition(metrics)
        assert "repro_serve_fleet_size 4" in text
        assert "repro_serve_workers_alive 3" in text
        assert "repro_serve_handler_errors_total 6" in text
        assert "repro_serve_batch_queue_depth 2" in text
        assert 'repro_serve_request_latency_ms_bucket{le="+Inf"} 4' in text

    def test_requests_series_is_derived_from_successes_and_errors(self):
        # two workers merged: the requests series is their summed
        # successes + errors, and no second error counter exists
        payload = metrics_payload([_worker_state(5, 3), _worker_state(4, 1)])
        text = render_exposition(payload)
        assert "repro_serve_requests_total 9" in text
        assert "repro_serve_successes_total 5" in text
        assert "repro_serve_errors_total 4" in text
        assert "request_errors" not in text
        assert "serve.requests" not in payload["telemetry"]["counters"]


class _EchoEngine:
    """Just enough of a ScoringEngine for ScoringService.score()."""

    monitor = None

    def score_record(self, record):
        return {"label": 1.0}


class TestMetricsPayload:
    def test_counts_are_per_service_and_survive_the_kill_switch(self, monkeypatch):
        # the serving counters live in each service's own registry: a
        # second service in the process and REPRO_TELEMETRY=0 change nothing
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        telemetry.reset_for_tests()
        first, second = ScoringService(_EchoEngine()), ScoringService(_EchoEngine())
        first.score({"x": 1})
        with pytest.raises(ValueError):
            first.score([1])
        second.score({"x": 1})
        metrics = first.metrics()
        assert (metrics["requests"], metrics["successes"], metrics["errors"]) == (2, 1, 1)
        assert metrics["records_scored"] == 1
        assert metrics["latency_ms"]["max"] is not None
        assert second.metrics()["requests"] == 1

    def test_latency_is_read_from_bucket_bounds(self):
        state = _worker_state(4, 0)
        state["telemetry"]["histograms"]["serve.request_latency_ms"] = {
            "bounds": [1.0, 5.0, 10.0],
            "counts": [2, 1, 0, 1],
            "sum": 120.0,
            "count": 4,
        }
        latency = metrics_payload([state])["latency_ms"]
        # nearest rank round(q * (n - 1)): p50 is the 3rd of 4 samples
        assert latency["p50"] == 5.0
        # p95 and max sit in the overflow bucket: no upper bound to report
        assert latency["p95"] is None
        assert latency["max"] is None

    def test_no_latency_before_the_first_request(self):
        assert "latency_ms" not in metrics_payload([_worker_state(0, 0)])

    def test_batching_block_is_read_from_the_batch_size_histogram(self):
        state = _worker_state(6, 0)
        state["telemetry"]["gauges"]["serve.batch_queue_depth"] = 3.0
        state["telemetry"]["histograms"]["serve.batch_size"] = {
            "bounds": [1.0, 2.0, 4.0],
            "counts": [1, 0, 1, 0],
            "sum": 5.0,
            "count": 2,
        }
        assert metrics_payload([state])["batching"] == {
            "batches_dispatched": 2.0,
            "records_batched": 5.0,
            "mean_batch_size": 2.5,
            "queue_depth": 3.0,
        }

    def test_inline_worker_has_no_batching_block(self):
        assert "batching" not in metrics_payload([_worker_state(1, 0)])
