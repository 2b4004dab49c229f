"""Distributed executor coverage: framing, lease fault tolerance, and
byte-identity with the serial backend.

Protocol-level tests drive a :class:`Coordinator` directly with raw
frames (no experiment execution), so disconnects, expiries, duplicates
and stale results are exercised deterministically; end-to-end tests run
real forked workers over germancredit and compare against
:class:`SerialExecutor` output byte for byte.
"""

import json
import socket
import struct
import threading
import time

import pytest

from repro.core import (
    DIRemover,
    DistributedExecutor,
    GridSpec,
    LogisticRegression,
    NoIntervention,
    ResultsStore,
    SerialExecutor,
    make_executor,
)
from repro.core.distributed import (
    PROTOCOL_VERSION,
    Coordinator,
    PlanMismatchError,
    ProtocolError,
    parse_address,
    recv_frame,
    send_frame,
    worker_loop,
)
from repro import telemetry
from repro.cli import main
from repro.core.executors import EXECUTOR_BACKENDS, ExecutionPlan
from repro.datasets import load_dataset


def small_grid(seeds=(1, 2)):
    return GridSpec(
        seeds=list(seeds),
        learners=[lambda: LogisticRegression(tuned=False)],
        interventions=[NoIntervention, lambda: DIRemover(0.5)],
    )


@pytest.fixture(scope="module")
def german():
    return load_dataset("germancredit")


@pytest.fixture(scope="module")
def german_plan(german):
    frame, spec = german
    return ExecutionPlan.for_grid(frame, spec, small_grid())


@pytest.fixture(scope="module")
def serial_results(german_plan):
    return SerialExecutor().run(german_plan)


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


# ----------------------------------------------------------------------
# framing + address parsing
# ----------------------------------------------------------------------
class TestFraming:
    def test_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        message = {"type": "result", "nested": {"x": [1, 2.5, None, "é"]}}
        send_frame(a, message)
        assert recv_frame(b) == message
        a.close()
        assert recv_frame(b) is None  # clean EOF between frames
        b.close()

    def test_eof_mid_frame_raises(self):
        a, b = socket.socketpair()
        a.sendall(struct.pack(">I", 100) + b'{"type"')
        a.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_frame(b)
        b.close()

    def test_oversized_frame_rejected(self):
        a, b = socket.socketpair()
        a.sendall(struct.pack(">I", 2**31))
        with pytest.raises(ProtocolError, match="exceeds"):
            recv_frame(b)
        a.close()
        b.close()

    @pytest.mark.parametrize("body", [b"{not json", b"\xff\xfe"])
    def test_undecodable_frame_rejected(self, body):
        a, b = socket.socketpair()
        a.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError, match="not valid JSON"):
            recv_frame(b)
        a.close()
        b.close()

    def test_non_object_frame_rejected(self):
        a, b = socket.socketpair()
        data = json.dumps([1, 2]).encode()
        a.sendall(struct.pack(">I", len(data)) + data)
        with pytest.raises(ProtocolError, match="not a JSON object"):
            recv_frame(b)
        a.close()
        b.close()

    def test_parse_address_forms(self):
        assert parse_address("10.0.0.2:9000") == ("10.0.0.2", 9000)
        assert parse_address(":9000") == ("127.0.0.1", 9000)
        assert parse_address("9000") == ("127.0.0.1", 9000)
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address("nope")


# ----------------------------------------------------------------------
# protocol-level coordinator harness (no experiment execution)
# ----------------------------------------------------------------------
def fake_result(run_key):
    """A minimal but loadable RunResult wire dict."""
    return {
        "dataset": "germancredit",
        "random_seed": 0,
        "components": {},
        "candidates": [
            {"learner": "lr", "validation_metrics": {"overall__accuracy": 0.5}}
        ],
        "best_index": 0,
        "test_metrics": {"overall__accuracy": 0.5},
        "run_key": run_key,
    }


class CoordinatorHarness:
    """A live Coordinator over raw configs + a frame-level client."""

    def __init__(self, groups, lease_seconds=0.25):
        self.merged = {}
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.coordinator = Coordinator(
            self.sock,
            groups,
            self._emit,
            lease_seconds=lease_seconds,
        )
        self.coordinator.start()

    def _emit(self, configs, results):
        for config, result in zip(configs, results):
            assert config.run_key not in self.merged, "double merge"
            self.merged[config.run_key] = result

    def connect(self, worker="fake"):
        conn = socket.create_connection(self.coordinator.address)
        send_frame(
            conn,
            {"type": "register", "worker": worker, "protocol": PROTOCOL_VERSION},
        )
        welcome = recv_frame(conn)
        assert welcome["type"] == "welcome"
        return conn

    def lease(self, conn):
        send_frame(conn, {"type": "lease"})
        return recv_frame(conn)

    def close(self):
        self.coordinator.stop()


@pytest.fixture()
def configs():
    # plain plan expansion: real run/prep keys, no frame needed
    return small_grid().expand("germancredit")


class TestCoordinatorProtocol:
    def test_lease_complete_merges_and_counts_stats(self, configs):
        harness = CoordinatorHarness([configs[:2], configs[2:]])
        try:
            conn = harness.connect(worker="w1")
            work = harness.lease(conn)
            assert work["type"] == "work"
            assert work["prep_key"] == configs[0].prep_key
            for key in work["run_keys"]:
                send_frame(
                    conn,
                    {
                        "type": "result",
                        "lease": work["lease"],
                        "run_key": key,
                        "result": fake_result(key),
                    },
                )
            send_frame(
                conn,
                {
                    "type": "complete",
                    "lease": work["lease"],
                    "stats": {"runs": 2, "groups": 1, "seconds": 0.5},
                },
            )
            ack = recv_frame(conn)
            assert ack == {"type": "ack", "stale": False}
            stats = harness.coordinator.stats
            assert stats["completed"] == 2
            assert stats["workers"]["w1"]["runs"] == 2
            assert stats["workers"]["w1"]["groups"] <= stats["workers"]["w1"]["runs"]
            assert set(harness.merged) == set(work["run_keys"])
            conn.close()
        finally:
            harness.close()

    def test_duplicate_results_dropped(self, configs):
        harness = CoordinatorHarness([configs[:2]])
        try:
            conn = harness.connect()
            work = harness.lease(conn)
            key = work["run_keys"][0]
            for _ in range(3):
                send_frame(
                    conn,
                    {
                        "type": "result",
                        "lease": work["lease"],
                        "run_key": key,
                        "result": fake_result(key),
                    },
                )
            send_frame(conn, {"type": "complete", "lease": work["lease"]})
            recv_frame(conn)
            assert harness.coordinator.stats["duplicates"] == 2
            # the store saw the key exactly once
            assert list(harness.merged) == [key]
            conn.close()
        finally:
            harness.close()

    def test_disconnect_requeues_unfinished_keys(self, configs):
        harness = CoordinatorHarness([configs[:2]])
        try:
            conn = harness.connect()
            work = harness.lease(conn)
            key = work["run_keys"][0]
            send_frame(
                conn,
                {
                    "type": "result",
                    "lease": work["lease"],
                    "run_key": key,
                    "result": fake_result(key),
                },
            )
            conn.close()  # dies without completing the lease
            assert wait_until(
                lambda: harness.coordinator.stats["requeued"] == 1
            )
            # the streamed result survived the crash; only the missing
            # key went back on the queue, at the front
            assert list(harness.merged) == [key]
            second = harness.connect(worker="w2")
            work2 = harness.lease(second)
            assert work2["run_keys"] == [k for k in work["run_keys"] if k != key]
            second.close()
        finally:
            harness.close()

    def test_lease_expiry_requeues_and_stale_result_recovered(self, configs):
        harness = CoordinatorHarness([configs[:2]], lease_seconds=0.2)
        try:
            conn = harness.connect()
            work = harness.lease(conn)
            # stall silently (no heartbeat, no results) past the deadline
            assert wait_until(
                lambda: harness.coordinator.stats["requeued"] == 2
            )
            # the stalled worker wakes up and streams a result anyway:
            # merged directly (the key is still missing), counted stale
            key = work["run_keys"][0]
            send_frame(
                conn,
                {
                    "type": "result",
                    "lease": work["lease"],
                    "run_key": key,
                    "result": fake_result(key),
                },
            )
            assert wait_until(
                lambda: harness.coordinator.stats["stale_results"] == 1
            )
            assert list(harness.merged) == [key]
            # a fresh worker re-leases only the still-missing key
            second = harness.connect(worker="w2")
            work2 = harness.lease(second)
            assert work2["run_keys"] == [k for k in work["run_keys"] if k != key]
            second.close()
            conn.close()
        finally:
            harness.close()

    def test_heartbeat_holds_a_slow_lease(self, configs):
        harness = CoordinatorHarness([configs[:2]], lease_seconds=0.3)
        try:
            conn = harness.connect()
            work = harness.lease(conn)
            for _ in range(6):  # stay silent except for heartbeats
                time.sleep(0.1)
                send_frame(conn, {"type": "heartbeat", "lease": work["lease"]})
            assert harness.coordinator.stats["requeued"] == 0
            conn.close()
        finally:
            harness.close()

    def test_empty_grid_finishes_immediately(self):
        harness = CoordinatorHarness([])
        try:
            assert harness.coordinator.finished.is_set()
            conn = harness.connect()
            assert harness.lease(conn) == {"type": "done"}
            conn.close()
        finally:
            harness.close()


def result_frame(lease, run_key):
    return {
        "type": "result",
        "lease": lease,
        "run_key": run_key,
        "result": fake_result(run_key),
    }


class TestCoordinatorFaults:
    def test_result_outside_its_lease_is_merged(self, configs):
        """The holder of lease A also sends a key of queued group B under
        A. That key must be merged at once: it used to be recorded as done
        on A, never merged, and filtered out of B, so the grid stopped at
        3/4 and every later lease request got "wait"."""
        harness = CoordinatorHarness([configs[:2], configs[2:4]])
        try:
            conn = harness.connect(worker="w1")
            work = harness.lease(conn)
            for key in [*work["run_keys"], configs[2].run_key]:
                send_frame(conn, result_frame(work["lease"], key))
            send_frame(conn, {"type": "complete", "lease": work["lease"]})
            assert recv_frame(conn) == {"type": "ack", "stale": False}
            second = harness.lease(conn)
            assert second["run_keys"] == [configs[3].run_key]
            send_frame(conn, result_frame(second["lease"], configs[3].run_key))
            send_frame(conn, {"type": "complete", "lease": second["lease"]})
            assert recv_frame(conn) == {"type": "ack", "stale": False}
            stats = harness.coordinator.stats
            assert (stats["completed"], stats["total"]) == (4, 4)
            assert harness.coordinator.finished.is_set()
            assert set(harness.merged) == {c.run_key for c in configs[:4]}
            assert harness.lease(conn) == {"type": "done"}
            conn.close()
        finally:
            harness.close()

    @pytest.mark.parametrize(
        "malformed",
        [
            lambda lease, key: {"type": "result", "lease": lease, "run_key": key},
            lambda lease, key: {"type": "heartbeat", "lease": [lease]},
            lambda lease, key: {"type": "complete", "lease": lease, "stats": [1]},
        ],
        ids=["result-without-result", "list-valued-lease", "non-dict-stats"],
    )
    def test_malformed_frame_gets_an_error_and_requeues(self, configs, malformed):
        harness = CoordinatorHarness([configs[:2]], lease_seconds=30.0)
        try:
            conn = harness.connect()
            work = harness.lease(conn)
            send_frame(conn, malformed(work["lease"], work["run_keys"][0]))
            reply = recv_frame(conn)
            assert reply["type"] == "error"
            assert "malformed" in reply["message"]
            counters = telemetry.metrics_state()["counters"]
            assert counters.get("distributed.protocol-error", 0) >= 1
            assert recv_frame(conn) is None  # the coordinator hung up
            # re-queued on disconnect, long before the 30 s deadline
            assert wait_until(lambda: harness.coordinator.stats["requeued"] == 2)
            second = harness.connect(worker="w2")
            assert harness.lease(second)["run_keys"] == work["run_keys"]
            second.close()
            conn.close()
        finally:
            harness.close()

    @pytest.mark.parametrize(
        "body, reason",
        [
            (b"{not json", "not valid JSON"),
            (b"\xff\xfe", "not valid JSON"),
            (b"[1]", "not a JSON object"),
        ],
        ids=["not-json", "not-utf8", "not-an-object"],
    )
    def test_undecodable_frame_gets_an_error_and_requeues(self, configs, body, reason):
        harness = CoordinatorHarness([configs[:2]], lease_seconds=30.0)
        try:
            conn = harness.connect()
            work = harness.lease(conn)
            before = telemetry.metrics_state()["counters"].get(
                "distributed.protocol-error", 0
            )
            conn.sendall(struct.pack(">I", len(body)) + body)
            reply = recv_frame(conn)
            assert reply["type"] == "error"
            assert reason in reply["message"]
            after = telemetry.metrics_state()["counters"]["distributed.protocol-error"]
            assert after == before + 1
            assert recv_frame(conn) is None  # the coordinator hung up
            assert wait_until(lambda: harness.coordinator.stats["requeued"] == 2)
            second = harness.connect(worker="w2")
            assert harness.lease(second)["run_keys"] == work["run_keys"]
            second.close()
            conn.close()
        finally:
            harness.close()

    def test_register_of_another_protocol_is_refused(self, configs):
        harness = CoordinatorHarness([configs[:2]])
        try:
            conn = socket.create_connection(harness.coordinator.address)
            send_frame(conn, {"type": "register", "worker": "old", "protocol": 1})
            reply = recv_frame(conn)
            assert reply["type"] == "error"
            assert "protocol 1" in reply["message"]
            assert f"speaks {PROTOCOL_VERSION}" in reply["message"]
            assert recv_frame(conn) is None
            assert harness.coordinator.live_worker_count() == 0
            conn.close()
        finally:
            harness.close()

    def test_worker_refuses_a_welcome_of_another_protocol(self, capsys):
        other = PROTOCOL_VERSION + 1
        listener = socket.create_server(("127.0.0.1", 0))
        registered = []

        def coordinator_of_another_version():
            conn, _ = listener.accept()
            with conn:
                registered.append(recv_frame(conn))
                send_frame(
                    conn,
                    {"type": "welcome", "protocol": other, "lease_seconds": 1.0},
                )
                recv_frame(conn)  # the worker hangs up

        thread = threading.Thread(target=coordinator_of_another_version)
        thread.start()
        host, port = listener.getsockname()[:2]
        try:
            code = main(["grid-worker", "--connect", f"{host}:{port}"])
        finally:
            thread.join(timeout=10)
            listener.close()
        assert not thread.is_alive()
        assert code == 2
        assert registered[0]["protocol"] == PROTOCOL_VERSION
        assert f"coordinator speaks protocol {other}" in capsys.readouterr().err


class LockProbeConn:
    """A connection stub that, on every send, checks from another thread
    whether the coordinator's lock is free: a reply sent while holding it
    would let one client that stops reading stall every handler thread
    and the expiry monitor."""

    def __init__(self, coordinator):
        self._coordinator = coordinator
        self.frames = []
        self.lock_free = []

    def sendall(self, data):
        lock = self._coordinator._lock
        free = []

        def probe():
            acquired = lock.acquire(blocking=False)
            if acquired:
                lock.release()
            free.append(acquired)

        prober = threading.Thread(target=probe)
        prober.start()
        prober.join()
        self.lock_free.append(free[0])
        self.frames.append(json.loads(data[4:]))


class TestRepliesSentOutsideLock:
    @pytest.fixture()
    def listener(self):
        sock = socket.socket()
        yield sock
        sock.close()

    def test_done_reply(self, listener):
        coordinator = Coordinator(listener, [], lambda c, r: None)
        conn = LockProbeConn(coordinator)
        assert coordinator._handle(1, conn, {"type": "lease"})
        assert conn.frames == [{"type": "done"}]
        assert conn.lock_free == [True]

    def test_wait_reply(self, listener, configs):
        coordinator = Coordinator(listener, [configs[:2]], lambda c, r: None)
        conn = LockProbeConn(coordinator)
        coordinator._handle(1, conn, {"type": "lease"})
        # the only group is leased to connection 1, so connection 2 waits
        coordinator._handle(2, conn, {"type": "lease"})
        assert [f["type"] for f in conn.frames] == ["work", "wait"]
        assert conn.lock_free == [True, True]

    def test_stale_ack_reply(self, listener, configs):
        coordinator = Coordinator(listener, [configs[:2]], lambda c, r: None)
        conn = LockProbeConn(coordinator)
        coordinator._handle(1, conn, {"type": "complete", "lease": 99})
        assert conn.frames == [{"type": "ack", "stale": True}]
        assert conn.lock_free == [True]

    def test_error_reply_to_a_malformed_frame(self, listener, configs):
        coordinator = Coordinator(listener, [configs[:2]], lambda c, r: None)
        conn = LockProbeConn(coordinator)
        assert not coordinator._handle(1, conn, {"type": "heartbeat"})
        assert [f["type"] for f in conn.frames] == ["error"]
        assert conn.lock_free == [True]


# ----------------------------------------------------------------------
# end-to-end: forked localhost workers, byte-identity with serial
# ----------------------------------------------------------------------
class TestDistributedEndToEnd:
    def test_results_byte_identical_to_serial(
        self, german_plan, serial_results, tmp_path
    ):
        store = ResultsStore(str(tmp_path / "dist.jsonl"))
        executor = DistributedExecutor(workers=2, lease_seconds=10.0)
        results = executor.run(german_plan, results_store=store)
        assert [r.to_json() for r in results] == [
            r.to_json() for r in serial_results
        ]
        # store contents match a serial store modulo row order
        serial_store = ResultsStore(str(tmp_path / "serial.jsonl"))
        serial_store.extend(serial_results)
        with open(store.path) as d, open(serial_store.path) as s:
            assert sorted(d.readlines()) == sorted(s.readlines())

    def test_worker_stats_cover_every_run(self, german_plan):
        executor = DistributedExecutor(workers=2, lease_seconds=10.0)
        executor.run(german_plan)
        stats = executor.stats
        assert stats["completed"] == stats["total"] == 4
        assert stats["requeued"] == 0
        per_worker = stats["workers"].values()
        assert sum(w["runs"] for w in per_worker) == 4
        # shared preparation: each 2-run group built its splits once
        assert all(w["groups"] <= w["runs"] for w in per_worker)

    def test_resume_executes_only_missing_keys(
        self, german_plan, serial_results, tmp_path
    ):
        store = ResultsStore(str(tmp_path / "partial.jsonl"))
        store.extend(serial_results[:2])
        executor = DistributedExecutor(workers=1, lease_seconds=10.0)
        results = executor.run(german_plan, results_store=store, resume=True)
        assert executor.stats["total"] == 2  # only the missing half leased
        assert [r.to_json() for r in results] == [
            r.to_json() for r in serial_results
        ]

    def test_manifest_round_trip_to_external_worker(self, german, german_plan):
        frame, spec = german
        manifest = {"dataset": "germancredit", "token": 41}
        seen = {}

        def plan_factory(received):
            seen.update(received)
            # an external worker rebuilds an equivalent plan from names
            return ExecutionPlan.for_grid(frame, spec, small_grid())

        executor = DistributedExecutor(
            workers=0, lease_seconds=10.0, manifest=manifest
        )
        address = executor.address
        runner = threading.Thread(
            target=lambda: setattr(
                executor, "_results", executor.run(german_plan)
            )
        )
        runner.start()
        stats = worker_loop(address, plan_factory=plan_factory, worker_id="ext")
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert seen == manifest
        assert stats["runs"] == 4
        assert executor.stats["workers"]["ext"]["runs"] == 4

    def test_plan_mismatch_fails_loudly(self, german, german_plan):
        frame, spec = german
        wrong_plan = ExecutionPlan.for_grid(
            frame, spec, small_grid(seeds=(7, 8))
        )
        executor = DistributedExecutor(
            workers=0, lease_seconds=10.0, manifest={"v": 1}
        )
        address = executor.address
        results_box = {}
        runner = threading.Thread(
            target=lambda: results_box.setdefault(
                "results", executor.run(german_plan)
            )
        )
        runner.start()
        with pytest.raises(PlanMismatchError, match="missing from this"):
            worker_loop(address, plan=wrong_plan, worker_id="bad")
        # a correct worker then drains the grid: the mismatch cost nothing
        stats = worker_loop(address, plan=german_plan, worker_id="good")
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert stats["runs"] == 4
        assert len(results_box["results"]) == 4

    def test_all_local_workers_dead_raises(self, german, german_plan):
        frame, spec = german
        executor = DistributedExecutor(workers=1, lease_seconds=2.0)
        bad_plan = ExecutionPlan.for_grid(frame, spec, small_grid())
        bad_plan.grid = None  # build_experiment will fail in the worker
        with pytest.raises(RuntimeError, match="exited before the grid"):
            executor.run(bad_plan)


class TestBackendRegistry:
    def test_distributed_backend_registered(self):
        assert set(EXECUTOR_BACKENDS) >= {"serial", "parallel", "distributed"}
        executor = make_executor("distributed", workers=0, manifest={})
        try:
            assert executor.workers == 0
        finally:
            executor.close()

    def test_unknown_backend_lists_choices(self):
        with pytest.raises(KeyError, match="distributed"):
            make_executor("definitely-not-a-backend")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            DistributedExecutor(workers=-1)
        sock = socket.create_server(("127.0.0.1", 0))
        try:
            with pytest.raises(ValueError, match="lease_seconds"):
                Coordinator(sock, [], lambda c, r: None, lease_seconds=0)
        finally:
            sock.close()
