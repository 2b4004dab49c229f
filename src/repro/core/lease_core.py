"""The lease coordinator's state machine, with no sockets, threads or clock.

:class:`LeaseCore` holds the whole state of one distributed grid run and
changes only in :meth:`LeaseCore.handle`, which applies one event and
returns a :class:`Step`. Time enters only as the ``now`` argument, so any
interleaving of events replays exactly: the socket shell
(:class:`~repro.core.distributed.Coordinator`) calls it under one lock,
and ``tests/core/test_lease_explorer.py`` walks every reachable state of
small grids. :func:`decode_frame` is the one place a worker frame is
checked.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence

from .plan import RunConfig
from .results import RunResult

PROTOCOL_VERSION = 2


class ProtocolError(RuntimeError):
    """A malformed or unexpected frame on a coordinator/worker connection."""


# events: decode_frame builds the first six from worker frames, the shell
# adds Disconnect when a connection ends and Tick from its expiry monitor
Register = NamedTuple("Register", [("worker", str), ("needs_manifest", bool)])
Lease = NamedTuple("Lease", [])
Result = NamedTuple("Result", [("lease", int), ("run_key", str), ("result", object)])
Heartbeat = NamedTuple("Heartbeat", [("lease", int)])
Complete = NamedTuple("Complete", [("lease", int), ("stats", dict)])
WorkerError = NamedTuple("WorkerError", [("message", str)])
Disconnect = NamedTuple("Disconnect", [])
Tick = NamedTuple("Tick", [])


def decode_frame(frame: dict):
    """Turn one worker frame into an event, or raise :class:`ProtocolError`."""
    kind = frame.get("type")
    try:
        if kind == "register":
            protocol = frame.get("protocol")
            if protocol != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"worker speaks protocol {protocol!r}, this coordinator "
                    f"speaks {PROTOCOL_VERSION}; upgrade the older side"
                )
            return Register(
                str(frame.get("worker") or ""), bool(frame.get("needs_manifest"))
            )
        if kind == "lease":
            return Lease()
        if kind == "result":
            run_key = frame["run_key"]
            if not isinstance(run_key, str):
                raise TypeError(f"run_key {run_key!r} is not a string")
            result = RunResult.from_dict(frame["result"])
            result.run_key = run_key
            return Result(_lease_id(frame), run_key, result)
        if kind == "heartbeat":
            return Heartbeat(_lease_id(frame))
        if kind == "complete":
            reported = frame.get("stats") or {}
            stats = {key: int(reported.get(key, 0)) for key in ("runs", "groups")}
            stats["seconds"] = float(reported.get("seconds", 0.0))
            return Complete(_lease_id(frame), stats)
        if kind == "error":
            return WorkerError(str(frame.get("message")))
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise ProtocolError(f"malformed {kind} frame: {error!r}") from None
    raise ProtocolError(f"unknown frame type {kind!r}")


def _lease_id(frame: dict) -> int:
    lease = frame.get("lease")
    if type(lease) is not int:
        raise TypeError(f"lease id {lease!r} is not an integer")
    return lease


@dataclass
class Step:
    """What one event asks of the shell, in this order: persist ``merges``
    under the lock; then record ``events``, send ``reply`` to the sending
    connection, and close it if ``close``."""

    reply: Optional[dict] = None
    merges: List[tuple] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)
    close: bool = False

    def event(self, name: str, **fields) -> None:
        self.events.append(dict(event=name, **fields))


class _Grant:
    """One granted lease: its holder, its keys and what it has buffered."""

    __slots__ = ("lease_id", "conn", "configs", "deadline", "received")

    def __init__(self, lease_id, conn, configs: List[RunConfig], deadline):
        self.lease_id = lease_id
        self.conn = conn
        self.configs = {c.run_key: c for c in configs}
        self.deadline = deadline
        self.received: Dict[str, RunResult] = {}


class LeaseCore:
    """Lease queue and merge rule for one distributed grid run.

    A key is *accepted* once its first result arrives: on the lease that
    holds it, where it waits to be merged with the lease's other results
    when the lease is retired (completed, expired or disconnected), or on
    any other path (an expired lease, a previous holder, a key outside the
    lease named), where it is merged at once. Every later result for an
    accepted key is a duplicate. Retiring a lease is one step: merge what
    it received, then put its unaccepted keys back at the queue front.
    """

    def __init__(
        self,
        groups: Sequence[Sequence[RunConfig]],
        lease_seconds: float,
        manifest: Optional[dict] = None,
        trace: Optional[dict] = None,
    ):
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be > 0, got {lease_seconds}")
        self.lease_seconds = float(lease_seconds)
        self.manifest = manifest
        self.trace = trace
        self.queue = deque(list(group) for group in groups if group)
        self.configs = {c.run_key: c for group in self.queue for c in group}
        self.leases: Dict[int, _Grant] = {}
        self.accepted: set = set()
        self.workers: Dict[object, str] = {}  # live connection -> worker id
        self._lease_seq = 0
        counters = ("leased", "completed", "requeued", "duplicates", "stale_results")
        self.stats = dict.fromkeys(counters, 0)
        self.stats["total"] = len(self.configs)
        self.stats["workers"] = {}

    @property
    def finished(self) -> bool:
        """Every key merged (emitted), not merely received."""
        return self.stats["completed"] >= self.stats["total"]

    def handle(self, conn, event, now: float) -> Step:
        """Apply one event from connection ``conn`` (``None`` for a tick)."""
        step = Step()
        match event:
            case Register():
                self._register(step, conn, event)
            case Lease():
                self._grant(step, conn, now)
            case Result():
                self._result(step, conn, event, now)
            case Heartbeat():
                grant = self._held(conn, event.lease)
                if grant is not None:
                    grant.deadline = now + self.lease_seconds
            case Complete():
                self._complete(step, conn, event)
            case WorkerError():
                step.event(
                    "worker-error", worker=self._name(conn), message=event.message
                )
                step.close = True
            case Disconnect():
                self.workers.pop(conn, None)
                for grant in [g for g in self.leases.values() if g.conn == conn]:
                    self._retire(step, grant, "disconnect")
            case Tick():
                for grant in [g for g in self.leases.values() if g.deadline < now]:
                    self._retire(step, grant, "expired")
        return step

    def _name(self, conn) -> str:
        return self.workers.get(conn, f"conn-{conn}")

    def _record(self, worker: str) -> dict:
        return self.stats["workers"].setdefault(
            worker, {"runs": 0, "groups": 0, "seconds": 0.0}
        )

    def _held(self, conn, lease_id) -> Optional[_Grant]:
        grant = self.leases.get(lease_id)
        return grant if grant is not None and grant.conn == conn else None

    def _register(self, step: Step, conn, event: Register) -> None:
        worker = event.worker or f"conn-{conn}"
        self.workers[conn] = worker
        if worker not in self.stats["workers"]:
            step.event("worker-registered", worker=worker)
        self._record(worker)
        step.reply = {
            "type": "welcome",
            "protocol": PROTOCOL_VERSION,
            "lease_seconds": self.lease_seconds,
            "total": self.stats["total"],
        }
        if self.trace is not None:
            step.reply["trace"] = self.trace
        if event.needs_manifest:
            step.reply["manifest"] = self.manifest

    def _grant(self, step: Step, conn, now: float) -> None:
        if self.finished:
            step.reply = {"type": "done"}
            return
        configs: List[RunConfig] = []
        while self.queue and not configs:
            # drop keys that a result on another path already accepted
            group = self.queue.popleft()
            configs = [c for c in group if c.run_key not in self.accepted]
        if not configs:
            # work is outstanding elsewhere; it may yet be re-queued
            step.reply = {"type": "wait", "seconds": min(1.0, self.lease_seconds / 4)}
            return
        self._lease_seq += 1
        grant = _Grant(self._lease_seq, conn, configs, now + self.lease_seconds)
        self.leases[grant.lease_id] = grant
        self.stats["leased"] += len(configs)
        step.reply = {
            "type": "work",
            "lease": grant.lease_id,
            "prep_key": configs[0].prep_key,
            "run_keys": list(grant.configs),
        }
        step.event(
            "lease", lease=grant.lease_id, worker=self._name(conn), keys=len(configs)
        )

    def _result(self, step: Step, conn, event: Result, now: float) -> None:
        run_key = event.run_key
        config = self.configs.get(run_key)
        if config is None or run_key in self.accepted:
            self.stats["duplicates"] += 1
            return
        grant = self._held(conn, event.lease)
        if grant is not None and run_key in grant.configs:
            grant.deadline = now + self.lease_seconds
            grant.received[run_key] = event.result
            self.accepted.add(run_key)
            return
        # an expired lease, a previous holder, or a key outside the lease
        # named: the key is still pending, so merge it directly
        self.stats["stale_results"] += 1
        self._merge(step, [config], [event.result])

    def _complete(self, step: Step, conn, event: Complete) -> None:
        worker = self._name(conn)
        record = self._record(worker)
        for key, value in event.stats.items():
            record[key] += value
        grant = self._held(conn, event.lease)
        if grant is None:
            step.reply = {"type": "ack", "stale": True}
            return
        # a "complete" that did not deliver everything it leased re-queues
        # the rest (the worker skipped keys)
        merged = self._retire(step, grant, "incomplete")
        step.reply = {"type": "ack", "stale": False}
        step.event("complete", lease=grant.lease_id, worker=worker, keys=merged)

    def _merge(self, step: Step, configs, results) -> None:
        self.accepted.update(c.run_key for c in configs)
        step.merges.append((configs, results))
        self.stats["completed"] += len(results)

    def _retire(self, step: Step, grant: _Grant, reason: str) -> int:
        """Drop a lease, merge what it received and re-queue the rest at
        the front (re-queued work is the oldest work); returns the number
        of keys merged."""
        del self.leases[grant.lease_id]
        received = [c for c in grant.configs.values() if c.run_key in grant.received]
        if received:
            self._merge(step, received, [grant.received[c.run_key] for c in received])
        missing = [c for c in grant.configs.values() if c.run_key not in self.accepted]
        if missing:
            self.queue.appendleft(missing)
            self.stats["requeued"] += len(missing)
            step.event(
                "requeue", lease=grant.lease_id, keys=len(missing), reason=reason
            )
        return len(received)
