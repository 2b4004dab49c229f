"""Distributed grid execution: a fault-tolerant work-queue executor.

The third executor backend. A socket-based **coordinator** (run inside
:class:`DistributedExecutor`) leases whole ``prep_key`` groups of run
configurations to **workers** over length-prefixed JSON frames; workers
execute them locally through the existing
:func:`~repro.core.executors.iter_config_group` path — so the
shared-preparation and fitted-pre-processor caches survive distribution:
a worker that leases a group prepares its splits once, exactly like the
serial executor — and stream each :class:`~repro.core.results.RunResult`
back for idempotent merge-by-``run_key`` into the coordinator's store.

Wire protocol (one frame = 4-byte big-endian length + UTF-8 JSON object,
``type`` field first; worker frames on the left, coordinator replies on
the right)::

    register {worker, pid, needs_manifest}  -> welcome {lease_seconds,
                                               total, manifest?}
    lease    {}                             -> work {lease, prep_key,
                                               run_keys} | wait {seconds}
                                               | done {}
    result   {lease, run_key, result}       -> (no reply; streamed)
    heartbeat{lease}                        -> (no reply; renews deadline)
    complete {lease, stats}                 -> ack {stale?}
    error    {message}                      -> (connection torn down)

Fault tolerance comes from the plan layer's resume semantics rather than
from replication:

* every lease carries a deadline, renewed by heartbeats (and by each
  streamed result); a worker that dies or stalls past it has the lease's
  *unreceived* keys re-queued for the next worker;
* a worker disconnect re-queues its outstanding keys immediately;
* results are merged by ``run_key`` — duplicates (a re-queued group
  finished twice, a stale lease still streaming) are counted and dropped,
  so re-execution never corrupts the store;
* a killed coordinator restarts with ``resume=True`` and only re-issues
  the keys missing from its results store.

Single-coordinator by design; the frames carry explicit lease ids and
worker ids so a replicated coordinator (ScalienDB-style primary/backup)
can be layered on without changing the worker side.

Workers obtain the plan two ways: **forked localhost workers** (the
``workers=N`` single-machine mode used by benches and CI) inherit it
copy-on-write from the coordinator process, while **remote workers**
(``repro grid-worker --connect HOST:PORT``) rebuild it from the
serializable grid *manifest* the coordinator hands out at registration —
the manifest is opaque to this module; the CLI builds and interprets it.
Either way the worker recomputes the deterministic ``run_key``
fingerprints itself and refuses leases whose keys it cannot find, so a
plan mismatch fails loudly instead of silently merging foreign results.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import threading
import time
import warnings
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import parallel, telemetry
from .executors import (
    Executor,
    iter_config_group,
    plan_groups,
    register_executor,
)
from .plan import RunConfig
from .results import RunResult

PROTOCOL_VERSION = 1
DEFAULT_LEASE_SECONDS = 30.0
#: results are small JSON records; anything near this is a framing bug
MAX_FRAME_BYTES = 64 * 1024 * 1024

# coordinator-side event callback: receives dicts like
# {"event": "lease", "lease": 3, "worker": "w1", "keys": 4}
EventCallback = Callable[[dict], None]


class ProtocolError(RuntimeError):
    """A malformed or unexpected frame on a coordinator/worker connection."""


class PlanMismatchError(RuntimeError):
    """A leased ``run_key`` does not exist in the worker's own plan."""


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, message: dict) -> None:
    """Write one length-prefixed JSON frame."""
    data = json.dumps(message, separators=(",", ":"), allow_nan=True).encode(
        "utf-8"
    )
    sock.sendall(struct.pack(">I", len(data)) + data)


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """Read one frame; ``None`` on a clean EOF between frames."""
    header = _recv_exact(sock, 4, eof_ok=True)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the protocol limit")
    data = _recv_exact(sock, length, eof_ok=False)
    message = json.loads(data.decode("utf-8"))
    if not isinstance(message, dict):
        raise ProtocolError(f"frame is not a JSON object: {message!r}")
    return message


def _recv_exact(sock: socket.socket, n: int, eof_ok: bool) -> Optional[bytes]:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if eof_ok and remaining == n:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def parse_address(text: str) -> Tuple[str, int]:
    """Parse ``HOST:PORT`` (or bare ``:PORT`` / ``PORT``) into a pair."""
    host, _, port = text.rpartition(":")
    try:
        return (host or "127.0.0.1"), int(port)
    except ValueError:
        raise ValueError(f"expected HOST:PORT, got {text!r}") from None


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
class _Lease:
    __slots__ = ("lease_id", "prep_key", "configs", "worker", "deadline", "received")

    def __init__(self, lease_id: int, configs: List[RunConfig], worker: str):
        self.lease_id = lease_id
        self.prep_key = configs[0].prep_key
        self.configs = configs
        self.worker = worker
        self.deadline = 0.0
        self.received: Dict[str, RunResult] = {}

    def missing(self) -> List[RunConfig]:
        return [c for c in self.configs if c.run_key not in self.received]


class Coordinator:
    """Lease queue + merge point for one distributed grid run.

    All state mutations happen under one lock; connection handler threads
    and the deadline monitor call into it, the owning executor thread only
    waits on :attr:`finished`. ``emit_group`` (the executor's persistence
    callback) is invoked under that lock, so store writes and progress
    callbacks are serialized exactly as in the single-process backends.
    """

    def __init__(
        self,
        sock: socket.socket,
        groups: Sequence[Sequence[RunConfig]],
        emit_group: Callable[[Sequence[RunConfig], List[RunResult]], None],
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        manifest: Optional[dict] = None,
        on_event: Optional[EventCallback] = None,
    ):
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be > 0, got {lease_seconds}")
        self._sock = sock
        # captured on the owning executor thread (inside its open
        # grid.run span) so remote workers can parent their spans there
        self._trace_context = telemetry.trace_context()
        self._queue = deque([list(group) for group in groups if group])
        self._total = sum(len(group) for group in self._queue)
        self._emit_group = emit_group
        self.lease_seconds = float(lease_seconds)
        self.manifest = manifest
        self._on_event = on_event
        self._lock = threading.RLock()
        self._outstanding: Dict[int, _Lease] = {}
        self._done_keys: set = set()
        self._lease_seq = 0
        self._registered: set = set()
        self._live_workers: Dict[int, str] = {}  # connection id -> worker id
        self._conn_seq = 0
        self._threads: List[threading.Thread] = []
        self._stopping = threading.Event()
        self.finished = threading.Event()
        if self._total == 0:
            self.finished.set()
        self.stats = {
            "total": self._total,
            "leased": 0,
            "completed": 0,
            "requeued": 0,
            "duplicates": 0,
            "stale_results": 0,
            "workers": {},
        }

    # -- lifecycle ------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        return self._sock.getsockname()[:2]

    def start(self) -> None:
        accept = threading.Thread(
            target=self._accept_loop, name="grid-coordinator-accept", daemon=True
        )
        monitor = threading.Thread(
            target=self._monitor_loop, name="grid-coordinator-monitor", daemon=True
        )
        self._threads = [accept, monitor]
        accept.start()
        monitor.start()

    def stop(self) -> None:
        self._stopping.set()
        try:
            self._sock.close()
        # lint: allow(silent-except) -- shutdown path; the socket may
        # already be closed, which is the goal
        except OSError:
            pass
        for thread in self._threads:
            thread.join(timeout=5.0)

    def live_worker_count(self) -> int:
        with self._lock:
            return len(self._live_workers)

    # -- accept / per-connection protocol -------------------------------
    def _accept_loop(self) -> None:
        # a timeout on accept() lets the loop observe stop(): closing a
        # listening socket does not reliably wake a thread blocked in
        # accept(). Accepted connections come back in blocking mode.
        self._sock.settimeout(0.2)
        while not self._stopping.is_set():
            try:
                conn, _ = self._sock.accept()
            # lint: allow(silent-except) -- the accept timeout is the poll
            # tick that lets the loop observe stop(); nothing failed
            except socket.timeout:
                continue
            except OSError:
                return  # listening socket closed by stop()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            handler = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            handler.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        with self._lock:
            self._conn_seq += 1
            conn_id = self._conn_seq
        worker = f"conn-{conn_id}"
        held: set = set()
        try:
            while True:
                frame = recv_frame(conn)
                if frame is None:
                    return
                kind = frame.get("type")
                if kind == "register":
                    worker = str(frame.get("worker") or worker)
                    self._register(conn_id, worker, frame, conn)
                elif kind == "lease":
                    self._grant(worker, held, conn)
                elif kind == "result":
                    self._on_result(frame, held)
                elif kind == "heartbeat":
                    self._renew(frame)
                elif kind == "complete":
                    self._on_complete(worker, frame, held, conn)
                elif kind == "error":
                    self._event(
                        {
                            "event": "worker-error",
                            "worker": worker,
                            "message": frame.get("message"),
                        }
                    )
                    return
                else:
                    send_frame(
                        conn,
                        {"type": "error", "message": f"unknown frame type {kind!r}"},
                    )
                    return
        # lint: allow(silent-except) -- a torn connection is expected
        # worker churn: the finally-block requeues its leases and emits a
        # 'requeue' telemetry event with reason=disconnect
        except (ProtocolError, OSError, ValueError):
            pass
        finally:
            try:
                conn.close()
            # lint: allow(silent-except) -- closing a torn connection;
            # there is nothing left to salvage
            except OSError:
                pass
            with self._lock:
                self._live_workers.pop(conn_id, None)
            self._requeue(held, reason="disconnect")

    def _register(self, conn_id, worker, frame, conn) -> None:
        with self._lock:
            self._live_workers[conn_id] = worker
            fresh = worker not in self._registered
            self._registered.add(worker)
            self.stats["workers"].setdefault(
                worker,
                {"runs": 0, "groups": 0, "prep_builds": 0, "seconds": 0.0},
            )
        if fresh:
            self._event({"event": "worker-registered", "worker": worker})
        welcome = {
            "type": "welcome",
            "protocol": PROTOCOL_VERSION,
            "lease_seconds": self.lease_seconds,
            "total": self._total,
        }
        if self._trace_context is not None:
            welcome["trace"] = self._trace_context
        if frame.get("needs_manifest"):
            welcome["manifest"] = self.manifest
        send_frame(conn, welcome)

    def _grant(self, worker, held, conn) -> None:
        # every reply is decided under the lock and sent after it, so a
        # client that stops reading stalls only its own handler thread
        configs: List[RunConfig] = []
        with self._lock:
            done = self.finished.is_set()
            while self._queue and not configs and not done:
                # drop keys that a stale-lease result already merged
                configs = [
                    c
                    for c in self._queue.popleft()
                    if c.run_key not in self._done_keys
                ]
            if configs:
                self._lease_seq += 1
                lease = _Lease(self._lease_seq, configs, worker)
                lease.deadline = time.monotonic() + self.lease_seconds
                self._outstanding[lease.lease_id] = lease
                held.add(lease.lease_id)
                self.stats["leased"] += len(configs)
        if done:
            send_frame(conn, {"type": "done"})
            return
        if not configs:
            # work is outstanding elsewhere; it may yet be re-queued
            send_frame(
                conn, {"type": "wait", "seconds": min(1.0, self.lease_seconds / 4)}
            )
            return
        send_frame(
            conn,
            {
                "type": "work",
                "lease": lease.lease_id,
                "prep_key": lease.prep_key,
                "run_keys": [c.run_key for c in configs],
            },
        )
        self._event(
            {
                "event": "lease",
                "lease": lease.lease_id,
                "worker": worker,
                "keys": len(configs),
            }
        )

    def _renew(self, frame) -> None:
        with self._lock:
            lease = self._outstanding.get(frame.get("lease"))
            if lease is not None:
                lease.deadline = time.monotonic() + self.lease_seconds

    def _on_result(self, frame, held) -> None:
        run_key = frame.get("run_key")
        result = RunResult.from_dict(frame["result"])
        result.run_key = run_key
        with self._lock:
            if run_key in self._done_keys:
                self.stats["duplicates"] += 1
                return
            lease = self._outstanding.get(frame.get("lease"))
            if lease is None or frame.get("lease") not in held:
                # stale lease (expired and re-queued, or from a previous
                # holder): the key is still missing, so merge it directly
                config = self._config_for(run_key)
                if config is None:
                    self.stats["duplicates"] += 1
                    return
                self.stats["stale_results"] += 1
                self._merge([config], [result])
                return
            lease.deadline = time.monotonic() + self.lease_seconds
            lease.received[run_key] = result
            self._done_keys.add(run_key)

    def _on_complete(self, worker, frame, held, conn) -> None:
        lease_id = frame.get("lease")
        reported = frame.get("stats") or {}
        with self._lock:
            record = self.stats["workers"].setdefault(
                worker,
                {"runs": 0, "groups": 0, "prep_builds": 0, "seconds": 0.0},
            )
            record["runs"] += int(reported.get("runs", 0))
            record["groups"] += int(reported.get("groups", 0))
            record["prep_builds"] += int(reported.get("prep_builds", 0))
            record["seconds"] += float(reported.get("seconds", 0.0))
            lease = self._outstanding.pop(lease_id, None)
            held.discard(lease_id)
            if lease is not None:
                # a "complete" that did not deliver everything it leased: the
                # worker skipped keys (e.g. crash-restart mid-lease semantics)
                merged, missing = self._retire(lease)
        if lease is None:
            send_frame(conn, {"type": "ack", "stale": True})
            return
        self._requeue_event(missing, lease_id, reason="incomplete")
        send_frame(conn, {"type": "ack", "stale": False})
        self._event(
            {
                "event": "complete",
                "lease": lease_id,
                "worker": worker,
                "keys": merged,
            }
        )

    # -- merge / requeue -------------------------------------------------
    def _config_for(self, run_key) -> Optional[RunConfig]:
        for lease in self._outstanding.values():
            for config in lease.configs:
                if config.run_key == run_key:
                    return config
        for group in self._queue:
            for config in group:
                if config.run_key == run_key:
                    return config
        return None

    def _merge(self, configs, results, already_marked=False) -> None:
        """Persist newly completed runs; caller holds the lock."""
        if not already_marked:
            for config in configs:
                self._done_keys.add(config.run_key)
            # drop the merged keys from wherever they were queued so an
            # eventual re-lease never recomputes them
            for group in list(self._queue):
                group[:] = [c for c in group if c.run_key not in self._done_keys]
                if not group:
                    self._queue.remove(group)
        self._emit_group(configs, results)
        self.stats["completed"] += len(results)
        # finished means every key MERGED (emitted to the store), not
        # merely received: results buffered on an active lease still need
        # their complete/disconnect/expiry merge before teardown is safe
        if self.stats["completed"] >= self._total:
            self.finished.set()

    def _retire(self, lease):
        """Merge a popped lease's received results and put its missing
        keys back at the front of the queue; caller holds the lock.

        Popping the lease, merging and re-queueing must be one critical
        section: a result landing between them would find its key
        neither leased nor queued and be dropped as a duplicate.
        Returns ``(merged count, re-queued configs)``.
        """
        received = [
            (c, lease.received[c.run_key])
            for c in lease.configs
            if c.run_key in lease.received
        ]
        if received:
            configs, results = zip(*received)
            self._merge(list(configs), list(results), already_marked=True)
        missing = [c for c in lease.missing() if c.run_key not in self._done_keys]
        if missing:
            # front of the queue: re-queued work is the oldest work
            self._queue.appendleft(missing)
            self.stats["requeued"] += len(missing)
        return len(received), missing

    def _requeue(self, lease_ids: set, reason: str) -> None:
        for lease_id in list(lease_ids):
            with self._lock:
                lease = self._outstanding.pop(lease_id, None)
                missing = [] if lease is None else self._retire(lease)[1]
            lease_ids.discard(lease_id)
            self._requeue_event(missing, lease_id, reason)

    def _requeue_event(self, configs, lease_id, reason) -> None:
        if configs:
            self._event(
                {
                    "event": "requeue",
                    "lease": lease_id,
                    "keys": len(configs),
                    "reason": reason,
                }
            )

    def _monitor_loop(self) -> None:
        tick = max(0.05, min(1.0, self.lease_seconds / 4))
        while not self._stopping.is_set() and not self.finished.is_set():
            now = time.monotonic()
            expired = set()
            with self._lock:
                for lease_id, lease in self._outstanding.items():
                    if lease.deadline < now:
                        expired.add(lease_id)
            if expired:
                self._requeue(expired, reason="expired")
            self._stopping.wait(tick)

    def _event(self, payload: dict) -> None:
        # every lease-queue event is a telemetry event first (a counter
        # always, a trace-log record when tracing), then the callback
        telemetry.record_event(
            f"distributed.{payload.get('event', 'unknown')}", dict(payload)
        )
        if self._on_event is not None:
            try:
                self._on_event(dict(payload))
            except Exception:
                # an observer must never kill the run
                telemetry.counter("distributed.observer_errors").inc()


# ----------------------------------------------------------------------
# worker
# ----------------------------------------------------------------------
def worker_loop(
    address: Tuple[str, int],
    plan=None,
    plan_factory: Optional[Callable[[Optional[dict]], object]] = None,
    worker_id: Optional[str] = None,
    on_event: Optional[EventCallback] = None,
) -> dict:
    """Pull leases from a coordinator until it reports the grid done.

    Pass ``plan`` when this process already holds the
    :class:`~repro.core.executors.ExecutionPlan` (forked localhost
    workers), or ``plan_factory`` to build one from the coordinator's
    manifest (``repro grid-worker``). Returns the worker's own stats.
    """
    if plan is None and plan_factory is None:
        raise ValueError("worker_loop needs a plan or a plan_factory")
    worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    sock = socket.create_connection(address)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    stats = {
        "worker": worker_id,
        "runs": 0,
        "groups": 0,
        "prep_builds": 0,
        "seconds": 0.0,
    }

    def event(payload: dict) -> None:
        if on_event is not None:
            on_event(dict(payload, worker=worker_id))

    try:
        send_frame(
            sock,
            {
                "type": "register",
                "worker": worker_id,
                "pid": os.getpid(),
                "protocol": PROTOCOL_VERSION,
                "needs_manifest": plan is None,
            },
        )
        welcome = recv_frame(sock)
        if welcome is None or welcome.get("type") != "welcome":
            raise ProtocolError(f"expected a welcome frame, got {welcome!r}")
        lease_seconds = float(welcome.get("lease_seconds", DEFAULT_LEASE_SECONDS))
        # a remote worker tracing into its own trace dir adopts the
        # coordinator's trace id + root span so the per-process files
        # stitch into the coordinator's tree (forked localhost workers
        # inherit the open span stack through fork instead)
        telemetry.adopt_context(welcome.get("trace"))
        if plan is None:
            manifest = welcome.get("manifest")
            if manifest is None:
                raise ProtocolError(
                    "coordinator offers no grid manifest; only forked "
                    "localhost workers can join this run"
                )
            plan = plan_factory(manifest)
        by_key = {config.run_key: config for config in plan.configs}

        while True:
            send_frame(sock, {"type": "lease"})
            reply = recv_frame(sock)
            if reply is None:
                raise ProtocolError("coordinator closed the connection")
            kind = reply.get("type")
            if kind == "done":
                event({"event": "done"})
                return stats
            if kind == "wait":
                time.sleep(float(reply.get("seconds", 0.5)))
                continue
            if kind != "work":
                raise ProtocolError(f"expected work/wait/done, got {reply!r}")

            lease_id = reply["lease"]
            keys = reply["run_keys"]
            unknown = [key for key in keys if key not in by_key]
            if unknown:
                message = (
                    f"leased {len(unknown)} run keys missing from this "
                    f"worker's plan (e.g. {unknown[0]}); dataset or grid "
                    "manifest differs from the coordinator's"
                )
                send_frame(sock, {"type": "error", "message": message})
                raise PlanMismatchError(message)
            group = sorted((by_key[key] for key in keys), key=lambda c: c.index)
            event({"event": "lease", "lease": lease_id, "keys": len(group)})

            started = time.monotonic()
            send_lock = threading.Lock()
            stop_heartbeat = threading.Event()
            heartbeat = threading.Thread(
                target=_heartbeat_loop,
                args=(sock, send_lock, stop_heartbeat, lease_id, lease_seconds),
                daemon=True,
            )
            heartbeat.start()
            try:
                with telemetry.span(
                    "distributed.lease",
                    lease=lease_id,
                    worker=worker_id,
                    keys=len(group),
                ):
                    for config, result in iter_config_group(plan, group):
                        with send_lock:
                            send_frame(
                                sock,
                                {
                                    "type": "result",
                                    "lease": lease_id,
                                    "run_key": config.run_key,
                                    "result": result.to_dict(),
                                },
                            )
            finally:
                stop_heartbeat.set()
                heartbeat.join()
            elapsed = time.monotonic() - started
            lease_stats = {
                "runs": len(group),
                "groups": 1,
                "prep_builds": 1,
                "seconds": round(elapsed, 6),
            }
            for key in ("runs", "groups", "prep_builds"):
                stats[key] += lease_stats[key]
            stats["seconds"] += lease_stats["seconds"]
            with send_lock:
                send_frame(
                    sock,
                    {"type": "complete", "lease": lease_id, "stats": lease_stats},
                )
            ack = recv_frame(sock)
            if ack is None or ack.get("type") != "ack":
                raise ProtocolError(f"expected an ack frame, got {ack!r}")
            event({"event": "complete", "lease": lease_id, "keys": len(group)})
    finally:
        try:
            sock.close()
        # lint: allow(silent-except) -- worker teardown; a close error on
        # an already-torn socket changes nothing
        except OSError:
            pass


def _heartbeat_loop(sock, send_lock, stop, lease_id, lease_seconds) -> None:
    interval = max(0.05, lease_seconds / 3.0)
    while not stop.wait(interval):
        try:
            with send_lock:
                send_frame(sock, {"type": "heartbeat", "lease": lease_id})
        except OSError:
            return  # the main loop will surface the dead connection


# ----------------------------------------------------------------------
# executor backend
# ----------------------------------------------------------------------
class DistributedExecutor(Executor):
    """Work-queue execution across machines (or forked localhost workers).

    The executor process runs the coordinator; ``workers=N`` forks N
    localhost workers that inherit the plan (the single-machine
    "distributed over localhost" mode — benches, CI, and any grid whose
    component factories are closures), while ``workers=0`` serves external
    ``repro grid-worker`` processes only, which rebuild the plan from
    ``manifest``. Results are identical to :meth:`Experiment.run` of each
    plan cell, as for every other backend — same metrics, same store
    contents modulo row order.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: Optional[int] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        manifest: Optional[dict] = None,
        on_event: Optional[EventCallback] = None,
    ):
        self.workers = (
            int(workers) if workers is not None else (os.cpu_count() or 1)
        )
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if self.workers == 0 and manifest is None:
            warnings.warn(
                "DistributedExecutor(workers=0) without a manifest can only "
                "serve forked workers, and it forks none; external "
                "grid-worker processes will be refused",
                RuntimeWarning,
                stacklevel=2,
            )
        self.lease_seconds = float(lease_seconds)
        self.manifest = manifest
        self.on_event = on_event
        self._host = host
        self._port = port
        self._sock: Optional[socket.socket] = None
        self.stats: Optional[dict] = None
        self._bind()

    def _bind(self) -> None:
        self._sock = socket.create_server((self._host, self._port))

    @property
    def address(self) -> Tuple[str, int]:
        """The coordinator's bound ``(host, port)`` — known before run()."""
        if self._sock is None:
            self._bind()
        return self._sock.getsockname()[:2]

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            # lint: allow(silent-except) -- executor shutdown; the socket
            # may already be closed by a failed bind
            except OSError:
                pass
            self._sock = None

    def _execute(self, plan, pending, emit_group) -> None:
        if self._sock is None:
            self._bind()
        groups = plan_groups(pending)
        if self.workers > 1:
            # fewer groups than local workers: split the largest so every
            # worker gets a lease (costs a re-preparation, never changes
            # results — same policy as ParallelExecutor)
            groups = parallel.split_for_balance(groups, self.workers)
        coordinator = Coordinator(
            self._sock,
            groups,
            emit_group,
            lease_seconds=self.lease_seconds,
            manifest=self.manifest,
            on_event=self.on_event,
        )
        address = coordinator.address
        coordinator.start()
        pids: List[int] = []
        threads: List[threading.Thread] = []
        try:
            if self.workers > 0 and parallel.fork_available():
                pids = [
                    parallel.fork_process(
                        lambda rank=rank: worker_loop(
                            address,
                            plan=plan,
                            worker_id=f"local-{rank}",
                        )
                    )
                    for rank in range(self.workers)
                ]
            elif self.workers > 0:
                warnings.warn(
                    "DistributedExecutor needs the 'fork' start method to "
                    "spawn localhost worker processes; running them as "
                    "threads instead (no parallel speedup)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                threads = [
                    threading.Thread(
                        target=worker_loop,
                        args=(address,),
                        kwargs={
                            "plan": plan,
                            "worker_id": f"local-{rank}",
                        },
                        daemon=True,
                    )
                    for rank in range(self.workers)
                ]
                for thread in threads:
                    thread.start()
            self._wait(coordinator, pids, threads)
        finally:
            for pid in pids:
                parallel.reap_process(pid, kill_after=self.lease_seconds)
            coordinator.stop()
            self.close()
            self.stats = coordinator.stats

    def _wait(self, coordinator, pids, threads) -> None:
        """Block until every key merged; watch local workers meanwhile."""
        alive = dict.fromkeys(pids, True)
        while not coordinator.finished.wait(timeout=0.1):
            for pid in [p for p, a in alive.items() if a]:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    alive[pid] = False
            if (
                self.workers > 0
                and pids
                and not any(alive.values())
                and coordinator.live_worker_count() == 0
            ):
                raise RuntimeError(
                    "all local grid workers exited before the grid "
                    "completed; see worker tracebacks above"
                )
            dead_threads = threads and not any(t.is_alive() for t in threads)
            if dead_threads and coordinator.live_worker_count() == 0:
                raise RuntimeError(
                    "all local grid worker threads exited before the grid "
                    "completed"
                )


register_executor("distributed", DistributedExecutor)
