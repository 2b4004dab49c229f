"""Multi-core serving: a pre-forked worker fleet behind one listen port.

One Python process cannot use more than one core for scoring — the GIL
serializes every scoring pass no matter how many handler threads
the HTTP layer spawns. :class:`ServingFleet` scales the serving layer the
way the paper's "millions of users" framing demands: a supervisor forks
``workers`` processes that *share one port*, each running the full
single-process stack (persistent HTTP/1.1 loop + MicroBatcher +
FairnessMonitor) over a pipeline artifact loaded **once, pre-fork** and
shared copy-on-write.

Port sharing uses ``SO_REUSEPORT``: every worker binds its own listening
socket to the same address, and the kernel hash-balances incoming
connections across the listening sockets. A dead worker only loses the
connections already in its accept queue; its replacement binds the same
port and rejoins the balance group. Workers are forked through
:func:`repro.parallel.fork_process` (the package is POSIX-only).

The fleet stays *observable as one server*. Each worker exposes its raw
:meth:`~repro.serve.service.ScoringService.state` on a per-worker unix
control socket; hitting ``/metrics`` (or ``/healthz``) on **any** worker
makes that worker collect every sibling's state and answer fleet-wide
through the same :func:`~repro.serve.service.metrics_payload` a single
worker uses: the workers' registry states are merged (``requests`` is
derived as ``successes + errors``, so the invariant holds in any merge),
the per-worker FairnessMonitor windows are combined with
:meth:`~repro.serve.monitor.FairnessMonitor.from_states` into one merged
fairness view with alerts evaluated at the fleet level, and per-worker
liveness (pid, uptime, queue depth) is listed.

Lifecycle: the supervisor polls its children and respawns any that die;
``SIGTERM``/``SIGINT`` trigger a graceful drain — workers stop accepting,
finish in-flight requests, flush their MicroBatcher queues (typed errors
for anything undispatchable), then exit; stragglers are killed after
``drain_timeout``.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import tempfile
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import parallel, telemetry
from .service import (
    ScoringService,
    dumps_strict,
    make_server,
    metrics_payload,
    request_summary,
)

_CONTROL_TIMEOUT = 2.0


# ----------------------------------------------------------------------
# per-worker control channel
# ----------------------------------------------------------------------
class _ControlServer(threading.Thread):
    """Dump-state-on-connect unix socket, served from a worker thread.

    The protocol is one-way: connect, receive one strict-JSON document
    (the worker's ``service.state()``), EOF. The dump goes through
    :func:`~repro.serve.service.dumps_strict` so a NaN in any monitor
    slot serializes as ``null`` instead of the invalid bare ``NaN``
    token that would break fleet-wide ``/metrics`` aggregation.
    """

    def __init__(self, path: str, state_fn: Callable[[], Dict[str, Any]]):
        super().__init__(name="repro-fleet-control", daemon=True)
        self.path = path
        self.state_fn = state_fn
        if os.path.exists(path):
            os.unlink(path)
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.bind(path)
        self.sock.listen(16)

    def run(self) -> None:
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return  # stop() closed the socket
            try:
                payload = dumps_strict(self.state_fn())
                conn.sendall(payload)
            except Exception:
                # a failed peer poll must never kill the worker
                telemetry.counter("serve.fleet.control_dump_errors").inc()
            finally:
                conn.close()

    def stop(self) -> None:
        try:
            self.sock.close()
        finally:
            if os.path.exists(self.path):
                try:
                    os.unlink(self.path)
                # lint: allow(silent-except) -- best-effort shutdown cleanup;
                # a leftover socket file is re-unlinked by the next bind
                except OSError:
                    pass


def _read_control_state(path: str, timeout: float = _CONTROL_TIMEOUT):
    """One worker's state dict, or ``None`` if it cannot be reached."""
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(timeout)
            sock.connect(path)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        return json.loads(b"".join(chunks).decode("utf-8"))
    except (OSError, ValueError):
        return None


# ----------------------------------------------------------------------
# fleet-wide aggregation (runs inside whichever worker got the request)
# ----------------------------------------------------------------------
class FleetView:
    """A worker's window onto its siblings, wired into ScoringService.

    Set as ``service.fleet``; :meth:`ScoringService.health` and
    :meth:`ScoringService.metrics` delegate here so any worker can answer
    for the whole fleet.
    """

    def __init__(self, index: int, control_paths: List[str]):
        self.index = index
        self.control_paths = list(control_paths)

    @property
    def size(self) -> int:
        return len(self.control_paths)

    def states(self, service: ScoringService) -> List[Optional[Dict[str, Any]]]:
        """Every worker's state in index order (``None`` = unreachable).

        The handling worker reads its own state directly — its control
        socket would work too, but the local call cannot fail.
        """
        return [
            service.state()
            if index == self.index
            else _read_control_state(path)
            for index, path in enumerate(self.control_paths)
        ]

    def health(self, service: ScoringService) -> Dict[str, Any]:
        return self._overview(self.states(service))

    def metrics(self, service: ScoringService) -> Dict[str, Any]:
        states = self.states(service)
        out = metrics_payload([s for s in states if s is not None])
        out.update(self._overview(states))
        return out

    def _overview(self, states: List[Optional[Dict[str, Any]]]) -> Dict[str, Any]:
        """The ``fleet`` and ``workers`` blocks of /healthz and /metrics."""
        return {
            "fleet": {
                "size": self.size,
                "worker_index": self.index,
                "workers_alive": sum(1 for s in states if s is not None),
            },
            "workers": [self._liveness(i, s) for i, s in enumerate(states)],
        }

    @staticmethod
    def _liveness(index: int, state: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        if state is None:
            return {"index": index, "status": "unreachable"}
        return {
            "index": index,
            "status": "ok",
            "pid": state["pid"],
            "uptime_seconds": state["uptime_seconds"],
            "queue_depth": state["queue_depth"],
            "inflight": state["inflight"],
            **request_summary(state["telemetry"]),
        }


# ----------------------------------------------------------------------
# supervisor
# ----------------------------------------------------------------------
class ServingFleet:
    """Fork-and-supervise ``workers`` scoring processes on one port.

    ``service_factory`` is called **inside each child after fork** to
    build that worker's :class:`ScoringService` — so per-worker state
    (monitor windows, batching queues, dispatcher threads) is born in the
    child, while everything the factory closes over (the loaded pipeline
    artifact, typically hundreds of megabytes of model state) was
    materialized once pre-fork and is shared copy-on-write.
    """

    def __init__(
        self,
        service_factory: Callable[[], ScoringService],
        host: str = "127.0.0.1",
        port: int = 8080,
        workers: int = 2,
        drain_timeout: float = 10.0,
        log: Optional[Callable[[str], None]] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.service_factory = service_factory
        self.host = host
        self.port = port
        self.workers = int(workers)
        self.drain_timeout = float(drain_timeout)
        self._log = log or (lambda message: None)
        self._children: Dict[int, int] = {}  # worker index -> pid
        self._placeholder: Optional[socket.socket] = None
        self._control_dir: Optional[str] = None
        self.control_paths: List[str] = []
        self._supervisor: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._stop_requested = threading.Event()

    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """How workers share the port (recorded by the HTTP bench)."""
        return "SO_REUSEPORT"

    def worker_pids(self) -> List[int]:
        return [self._children[i] for i in sorted(self._children)]

    def start(self) -> Tuple[str, int]:
        """Bind, fork the fleet, start supervising; returns (host, port)."""
        # bind (never listen!) a placeholder to resolve port 0 and keep the
        # address reserved across worker restarts; only listening
        # REUSEPORT sockets receive connections, so it never steals one
        self._placeholder = self._bound_placeholder()
        self.host, self.port = self._placeholder.getsockname()[:2]
        self._control_dir = tempfile.mkdtemp(prefix="repro-fleet-")
        self.control_paths = [
            os.path.join(self._control_dir, f"worker-{index}.sock")
            for index in range(self.workers)
        ]
        for index in range(self.workers):
            self._spawn(index)
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-fleet-supervisor", daemon=True
        )
        self._supervisor.start()
        self._log(
            f"fleet up: {self.workers} workers on http://{self.host}:"
            f"{self.port} ({self.mode})"
        )
        return self.host, self.port

    def request_stop(self) -> None:
        """Signal-handler-safe: ask :meth:`wait` to run the shutdown."""
        self._stop_requested.set()

    def wait(self) -> None:
        """Block until :meth:`request_stop`, then stop the fleet."""
        try:
            self._stop_requested.wait()
        finally:
            self.stop()

    def stop(self) -> None:
        """Graceful drain: SIGTERM workers, wait, SIGKILL stragglers."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        self._stop_requested.set()
        for pid in self.worker_pids():
            self._signal(pid, signal.SIGTERM)
        deadline = time.monotonic() + self.drain_timeout + 5.0
        pending = dict(self._children)
        while pending and time.monotonic() < deadline:
            for index, pid in list(pending.items()):
                if self._reap(pid):
                    del pending[index]
            if pending:
                time.sleep(0.05)
        for index, pid in pending.items():
            self._log(f"worker {index} (pid {pid}) ignored drain; killing")
            self._signal(pid, signal.SIGKILL)
            self._reap(pid, block=True)
        self._children.clear()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None
        for path in self.control_paths:
            if os.path.exists(path):
                try:
                    os.unlink(path)
                # lint: allow(silent-except) -- best-effort removal of
                # per-worker control sockets in a tempdir at shutdown
                except OSError:
                    pass
        if self._control_dir is not None and os.path.isdir(self._control_dir):
            try:
                os.rmdir(self._control_dir)
            # lint: allow(silent-except) -- the tempdir may be non-empty if
            # a worker was SIGKILLed mid-drain; the OS tempdir reaper owns
            # leftovers
            except OSError:
                pass
        self._log("fleet stopped")

    # ------------------------------------------------------------------
    def _bound_placeholder(self) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self.host, self.port))
        except BaseException:
            sock.close()
            raise
        return sock

    def _spawn(self, index: int) -> None:
        self._children[index] = parallel.fork_process(
            lambda: self._worker_main(index)
        )

    def _supervise(self) -> None:
        """Respawn dead workers until the fleet is asked to stop."""
        while not self._stopping.is_set():
            for index, pid in list(self._children.items()):
                if not self._reap(pid):
                    continue
                if self._stopping.is_set():
                    break
                if self._children.get(index) != pid:
                    continue  # already replaced
                self._log(f"worker {index} (pid {pid}) died; respawning")
                self._spawn(index)
            time.sleep(0.2)

    def _reap(self, pid: int, block: bool = False) -> bool:
        """True once ``pid`` has exited (and has been wait()ed on)."""
        try:
            done, _ = os.waitpid(pid, 0 if block else os.WNOHANG)
        except ChildProcessError:
            return True  # already reaped
        return done == pid

    @staticmethod
    def _signal(pid: int, signum: int) -> None:
        try:
            os.kill(pid, signum)
        # lint: allow(silent-except) -- the worker already exited, which is
        # exactly what the signal was asking for
        except ProcessLookupError:
            pass

    # ------------------------------------------------------------------
    # child process
    # ------------------------------------------------------------------
    def _worker_main(self, index: int) -> None:
        """Everything a worker does after fork; a raise exits it with 1."""
        stop = threading.Event()
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
        # the supervisor turns Ctrl-C into a graceful SIGTERM; a raw
        # KeyboardInterrupt mid-drain would defeat that
        signal.signal(signal.SIGINT, signal.SIG_IGN)

        service = self.service_factory()
        service.fleet = FleetView(index, self.control_paths)
        # the supervisor's placeholder is not this worker's problem
        self._placeholder.close()
        server = make_server(
            service, host=self.host, port=self.port, reuse_port=True
        )
        control = _ControlServer(self.control_paths[index], service.state)
        control.start()

        serve_thread = threading.Thread(
            target=server.serve_forever,
            name=f"repro-fleet-worker-{index}",
            daemon=True,
        )
        serve_thread.start()
        stop.wait()

        # graceful drain: stop accepting, let in-flight requests finish
        # (responses are single buffered writes, so nothing is ever
        # half-written), flush the MicroBatcher queue, then leave
        service.draining = True
        server.shutdown()
        service.drain(self.drain_timeout)
        control.stop()
        server.server_close()
