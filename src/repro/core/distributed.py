"""Distributed grid execution: a fault-tolerant work-queue executor.

The third executor backend. A socket-based **coordinator** (run inside
:class:`DistributedExecutor`) leases whole ``prep_key`` groups of run
configurations to **workers** over length-prefixed JSON frames. Workers
run a group through :func:`~repro.core.executors.iter_config_group`, so
they prepare its splits once, exactly like the serial executor, and
stream each :class:`~repro.core.results.RunResult` back to be merged by
``run_key`` into the coordinator's store.

Wire protocol (one frame = 4-byte big-endian length + UTF-8 JSON object;
worker frames on the left, coordinator replies on the right)::

    register {worker, pid, protocol,        -> welcome {protocol,
              needs_manifest}                  lease_seconds, total,
                                               trace?, manifest?}
    lease    {}                             -> work {lease, prep_key,
                                               run_keys} | wait {seconds}
                                               | done {}
    result   {lease, run_key, result}       -> (no reply; streamed)
    heartbeat{lease}                        -> (no reply; renews deadline)
    complete {lease, stats{runs, groups,    -> ack {stale}
              seconds}}
    error    {message}                      -> (connection torn down)
    a malformed frame, or a register whose  -> error {message}, and the
    protocol is not PROTOCOL_VERSION           connection is torn down

A worker likewise refuses a welcome of another protocol version.

The lease state and its rules live in
:class:`~repro.core.lease_core.LeaseCore`; :class:`Coordinator` is the
socket shell around it. A lease's deadline is renewed by heartbeats and
by each result; on expiry or disconnect its results are merged and its
unreceived keys re-queued. A result is merged once per ``run_key``, and
later copies are counted and dropped, so re-execution never corrupts the
store. A killed coordinator restarts with ``resume=True`` and re-issues
only the keys missing from its store.

Localhost workers (``workers=N``) are forked processes that inherit the
plan, so grid factories need not pickle; remote
workers (``repro grid-worker --connect HOST:PORT``) rebuild it from the
grid *manifest* sent in the welcome, which this module treats as opaque.
Either way the worker recomputes the ``run_key`` fingerprints itself and
refuses leases whose keys it cannot find, so a plan mismatch fails
loudly instead of merging foreign results.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import struct
import threading
import time
import warnings
from typing import Callable, List, Optional, Sequence, Tuple

from .. import parallel, telemetry
from .executors import Executor, iter_config_group, plan_groups, register_executor
from .lease_core import (
    PROTOCOL_VERSION,
    Disconnect,
    LeaseCore,
    ProtocolError,
    Step,
    Tick,
    decode_frame,
)
from .plan import RunConfig
from .results import RunResult

DEFAULT_LEASE_SECONDS = 30.0
#: results are small JSON records; anything near this is a framing bug
MAX_FRAME_BYTES = 64 * 1024 * 1024

# coordinator-side event callback: receives dicts like
# {"event": "lease", "lease": 3, "worker": "w1", "keys": 4}
EventCallback = Callable[[dict], None]


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
    try:
        message = json.loads(data.decode("utf-8"))
    except ValueError as error:  # undecodable UTF-8 or malformed JSON
        raise ProtocolError(f"frame is not valid JSON: {error}") from None
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
class Coordinator:
    """Socket shell around one :class:`~repro.core.lease_core.LeaseCore`.

    The accept loop, one handler thread per connection and the expiry
    monitor decode frames into events and apply them to the core under one
    plain lock, together with the merges it returns: ``emit_group`` (the
    executor's persistence callback) runs under that lock, so store writes
    and progress callbacks are serialized exactly as in the single-process
    backends. Telemetry events and the reply go out only after the lock is
    released, so a client that stops reading stalls only its own handler
    thread. The owning executor thread only waits on :attr:`finished`.
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
        # the trace context is captured on the owning executor thread
        # (inside its open grid.run span) so remote workers can parent
        # their spans there
        self._core = LeaseCore(
            groups, lease_seconds, manifest, telemetry.trace_context()
        )
        self._sock = sock
        self._emit_group = emit_group
        self._on_event = on_event
        self._lock = threading.Lock()
        self._conn_ids = itertools.count(1)
        self._threads: List[threading.Thread] = []
        self._stopping = threading.Event()
        self.finished = threading.Event()
        if self._core.finished:
            self.finished.set()

    @property
    def stats(self) -> dict:
        return self._core.stats

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
            return len(self._core.workers)

    # -- events ---------------------------------------------------------
    def _apply(self, conn_id, event) -> Step:
        with self._lock:
            step = self._core.handle(conn_id, event, time.monotonic())
            for configs, results in step.merges:
                self._emit_group(configs, results)
            if self._core.finished:
                self.finished.set()
        for payload in step.events:
            self._event(payload)
        return step

    def _handle(self, conn_id, conn, frame: dict) -> bool:
        """Apply one frame and send its reply; False closes the connection."""
        try:
            event = decode_frame(frame)
        except ProtocolError as error:
            self._refuse(conn, error)
            return False
        step = self._apply(conn_id, event)
        if step.reply is not None:
            send_frame(conn, step.reply)
        return not step.close

    def _refuse(self, conn, error: ProtocolError) -> None:
        # every malformed frame is counted and answered; the caller hangs up
        self._event({"event": "protocol-error", "message": str(error)})
        send_frame(conn, {"type": "error", "message": str(error)})

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
        conn_id = next(self._conn_ids)
        try:
            while True:
                try:
                    frame = recv_frame(conn)
                except ProtocolError as error:
                    self._refuse(conn, error)
                    return
                if frame is None or not self._handle(conn_id, conn, frame):
                    return
        # lint: allow(silent-except) -- a torn connection is expected
        # worker churn: the finally-block requeues its leases and emits a
        # 'requeue' telemetry event with reason=disconnect
        except OSError:
            pass
        finally:
            try:
                conn.close()
            # lint: allow(silent-except) -- closing a torn connection;
            # there is nothing left to salvage
            except OSError:
                pass
            self._apply(conn_id, Disconnect())

    def _monitor_loop(self) -> None:
        tick = max(0.05, min(1.0, self._core.lease_seconds / 4))
        while not self._stopping.wait(tick) and not self.finished.is_set():
            self._apply(None, Tick())

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
    stats = {"worker": worker_id, "runs": 0, "groups": 0, "seconds": 0.0}

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
        welcome = _expect(sock, "welcome")
        if welcome.get("protocol") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"coordinator speaks protocol {welcome.get('protocol')!r}, "
                f"this worker speaks {PROTOCOL_VERSION}; upgrade the older side"
            )
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
            reply = _expect(sock, "work", "wait", "done")
            if reply["type"] == "done":
                event({"event": "done"})
                return stats
            if reply["type"] == "wait":
                time.sleep(float(reply.get("seconds", 0.5)))
                continue

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
                    "distributed.lease", lease=lease_id, worker=worker_id,
                    keys=len(group),
                ):
                    for config, result in iter_config_group(plan, group):
                        frame = {"type": "result", "lease": lease_id}
                        frame.update(run_key=config.run_key, result=result.to_dict())
                        with send_lock:
                            send_frame(sock, frame)
            finally:
                stop_heartbeat.set()
                heartbeat.join()
            elapsed = round(time.monotonic() - started, 6)
            lease_stats = {"runs": len(group), "groups": 1, "seconds": elapsed}
            for key, value in lease_stats.items():
                stats[key] += value
            # the heartbeat thread is joined: this thread is the only sender
            send_frame(
                sock, {"type": "complete", "lease": lease_id, "stats": lease_stats}
            )
            _expect(sock, "ack")
            event({"event": "complete", "lease": lease_id, "keys": len(group)})
    finally:
        try:
            sock.close()
        # lint: allow(silent-except) -- worker teardown; a close error on
        # an already-torn socket changes nothing
        except OSError:
            pass


def _expect(sock, *kinds) -> dict:
    reply = recv_frame(sock)
    if reply is None or reply.get("type") not in kinds:
        raise ProtocolError(f"expected a {'/'.join(kinds)} frame, got {reply!r}")
    return reply


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
            self._sock, groups, emit_group, self.lease_seconds, self.manifest,
            self.on_event,
        )
        address = coordinator.address
        coordinator.start()
        pids: List[int] = []
        try:
            pids = [
                parallel.fork_process(
                    lambda rank=rank: worker_loop(
                        address, plan=plan, worker_id=f"local-{rank}"
                    )
                )
                for rank in range(self.workers)
            ]
            self._wait(coordinator, pids)
        finally:
            for pid in pids:
                parallel.reap_process(pid, kill_after=self.lease_seconds)
            coordinator.stop()
            self.close()
            self.stats = coordinator.stats

    def _wait(self, coordinator, pids) -> None:
        """Block until every key merged; watch local workers meanwhile."""
        local = bool(pids)
        while not coordinator.finished.wait(timeout=0.1):
            pids = [pid for pid in pids if not os.waitpid(pid, os.WNOHANG)[0]]
            if local and not (pids or coordinator.live_worker_count()):
                raise RuntimeError(
                    "all local grid workers exited before the grid "
                    "completed; see worker tracebacks above"
                )


register_executor("distributed", DistributedExecutor)
