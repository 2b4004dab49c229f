"""The lease coordinator's state machine, driven event by event.

:class:`LeaseCore` has no sockets, threads or clock, so each scenario here
is a plain sequence of events with explicit times. Every interleaving of
small grids is covered by ``test_lease_explorer.py``; these are the named
scenarios, kept readable.
"""

from collections import namedtuple

import pytest

from repro.core.lease_core import (
    PROTOCOL_VERSION,
    Complete,
    Disconnect,
    Heartbeat,
    Lease,
    LeaseCore,
    ProtocolError,
    Register,
    Result,
    Tick,
    WorkerError,
    decode_frame,
)

Config = namedtuple("Config", "run_key prep_key")
LEASE_SECONDS = 10.0


class Driver:
    """A core plus the list of keys it emitted, in emission order."""

    def __init__(self, groups):
        self.core = LeaseCore(groups, LEASE_SECONDS)
        self.emitted = []

    def __call__(self, conn, event, now=0.0):
        step = self.core.handle(conn, event, now)
        for configs, results in step.merges:
            assert list(results) == [f"result-{c.run_key}" for c in configs]
            self.emitted.extend(c.run_key for c in configs)
        return step

    def result(self, conn, lease, key, now=0.0):
        return self(conn, Result(lease, key, f"result-{key}"), now)


def pair():
    return [[Config("a", "p0"), Config("b", "p0")]]


# each way a lease is retired, and the connection its previous holder
# sends a late result from afterwards
RETIRES = {
    "expiry": (lambda drive, lease: drive(None, Tick(), LEASE_SECONDS + 1), 1),
    "incomplete-complete": (
        lambda drive, lease: drive(1, Complete(lease, {"runs": 1})),
        1,
    ),
    "disconnect": (lambda drive, lease: drive(1, Disconnect()), 2),
}


class TestLateResults:
    """A result that lands just before or just after its lease is retired
    is merged exactly once: popping the lease, merging what it received
    and re-queueing the rest are one event, so no result can land between
    them, and a pending key's result is merged on any path."""

    @pytest.mark.parametrize("late", ["before-retire", "after-retire"])
    @pytest.mark.parametrize("retire", sorted(RETIRES))
    def test_late_result_is_merged_once(self, retire, late):
        drive = Driver(pair())
        drive(1, Register("w1", False))
        lease = drive(1, Lease()).reply["lease"]
        drive.result(1, lease, "a")
        retire_lease, late_conn = RETIRES[retire]
        if late == "before-retire":
            drive.result(1, lease, "b")
        retire_lease(drive, lease)
        if late == "after-retire":
            drive.result(late_conn, lease, "b")
        stats = drive.core.stats
        assert stats["duplicates"] == 0
        assert sorted(drive.emitted) == ["a", "b"]
        assert stats["completed"] == stats["total"] == 2
        assert drive.core.finished
        assert drive(3, Lease()).reply == {"type": "done"}

    def test_retire_requeues_only_unreceived_keys_at_the_front(self):
        drive = Driver(pair() + [[Config("c", "p1")]])
        lease = drive(1, Lease()).reply["lease"]
        drive.result(1, lease, "a")
        drive(None, Tick(), LEASE_SECONDS + 1)
        assert drive.emitted == ["a"]
        assert drive(2, Lease(), LEASE_SECONDS + 1).reply["run_keys"] == ["b"]
        assert drive.core.stats["requeued"] == 1


class TestResultRule:
    def test_key_outside_the_named_lease_is_merged_at_once(self):
        """The holder of lease A sends a key of queued group B under A:
        it is merged at once and dropped from B, so the grid finishes."""
        drive = Driver(pair() + [[Config("c", "p1"), Config("d", "p1")]])
        lease = drive(1, Lease()).reply["lease"]
        for key in ("a", "b", "c"):
            drive.result(1, lease, key)
        assert drive.emitted == ["c"]
        drive(1, Complete(lease, {}))
        second = drive(1, Lease()).reply
        assert second["run_keys"] == ["d"]
        drive.result(1, second["lease"], "d")
        drive(1, Complete(second["lease"], {}))
        assert sorted(drive.emitted) == ["a", "b", "c", "d"]
        assert drive.core.stats["stale_results"] == 1
        assert drive.core.finished

    def test_another_connection_cannot_complete_or_renew_a_lease(self):
        drive = Driver(pair())
        lease = drive(1, Lease()).reply["lease"]
        drive(2, Heartbeat(lease), LEASE_SECONDS)
        assert drive(2, Complete(lease, {})).reply == {"type": "ack", "stale": True}
        # the holder's deadline was not renewed by connection 2
        drive(None, Tick(), LEASE_SECONDS + 1)
        assert drive.core.stats["requeued"] == 2

    def test_unknown_key_is_counted_as_a_duplicate(self):
        drive = Driver(pair())
        lease = drive(1, Lease()).reply["lease"]
        drive.result(1, lease, "not-in-the-grid")
        assert drive.emitted == []
        assert drive.core.stats["duplicates"] == 1

    def test_worker_error_closes_and_disconnect_requeues(self):
        drive = Driver(pair())
        drive(1, Register("w1", False))
        drive(1, Lease())
        step = drive(1, WorkerError("plan mismatch"))
        assert step.close
        assert step.events == [
            {"event": "worker-error", "worker": "w1", "message": "plan mismatch"}
        ]
        drive(1, Disconnect())
        assert drive.core.workers == {}
        assert drive.core.stats["requeued"] == 2


class TestDecode:
    def test_well_formed_frames(self):
        assert decode_frame(
            {"type": "register", "worker": "w", "protocol": PROTOCOL_VERSION}
        ) == Register("w", False)
        assert decode_frame({"type": "lease"}) == Lease()
        assert decode_frame({"type": "heartbeat", "lease": 3}) == Heartbeat(3)
        complete = decode_frame(
            {"type": "complete", "lease": 3, "stats": {"runs": 2, "groups": 1}}
        )
        assert complete == Complete(3, {"runs": 2, "groups": 1, "seconds": 0.0})
        result = {
            "dataset": "d",
            "random_seed": 0,
            "components": {},
            "candidates": [],
            "best_index": 0,
            "test_metrics": {},
        }
        event = decode_frame(
            {"type": "result", "lease": 3, "run_key": "k", "result": result}
        )
        assert (event.lease, event.run_key, event.result.run_key) == (3, "k", "k")

    @pytest.mark.parametrize(
        "frame",
        [
            {"type": "result", "lease": 1, "run_key": "k"},
            {"type": "result", "lease": 1, "run_key": 7, "result": {}},
            {"type": "result", "lease": 1, "run_key": "k", "result": "text"},
            {"type": "heartbeat", "lease": [1]},
            {"type": "heartbeat", "lease": True},
            {"type": "heartbeat"},
            {"type": "complete", "lease": 1, "stats": [1]},
            {"type": "complete", "lease": 1, "stats": {"runs": "many"}},
            {"type": "register", "worker": "w"},
            {"type": "register", "worker": "w", "protocol": PROTOCOL_VERSION - 1},
            {"type": "bogus"},
        ],
    )
    def test_malformed_frames_raise_protocol_error(self, frame):
        with pytest.raises(ProtocolError):
            decode_frame(frame)
