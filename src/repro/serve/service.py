"""Stdlib HTTP scoring endpoint (no framework, no new dependencies).

Routes::

    GET  /healthz   liveness + model identity
    GET  /metrics   request counters, latency stats, monitor snapshot+alerts
    POST /score     {"records": [{...}, ...]} or a single record object
                    -> {"labels": [...], "scores": [...], ...}

Built on :class:`http.server.ThreadingHTTPServer` with keep-alive
(HTTP/1.1), buffered responses, and ``TCP_NODELAY`` — without those, the
unbuffered header writes of the stdlib handler interact with Nagle's
algorithm and delayed ACKs to stall every persistent-connection response
by tens of milliseconds. Connection threads only parse HTTP and wait;
single-record scoring is coalesced by a :class:`~repro.serve.batching.
MicroBatcher` into vectorized ``score_records`` calls (set ``max_batch=1``
to score inline, thread-per-request style). Batch payloads are already
vectorized and go straight to the engine's ``score_batch``.

All responses are strict JSON: non-finite floats (NaN/Infinity) are
encoded as ``null``, never as the bare ``NaN`` tokens ``json.dumps``
emits by default, which strict parsers (``JSON.parse``, most non-Python
clients) reject.
"""

from __future__ import annotations

import json
import math
import os
import socket
import sys
import threading
import time
from http.server import ThreadingHTTPServer
from socketserver import StreamRequestHandler
from typing import Any, Dict, List, Optional

from .. import telemetry
from ..telemetry.metrics import MetricsRegistry, bucket_quantile
from .batching import (
    BATCH_SIZE,
    QUEUE_DEPTH,
    BatcherClosed,
    MicroBatcher,
    ServiceOverloaded,
    batching_stats,
)
from .monitor import FairnessMonitor
from .scoring import ScoringEngine

MAX_BODY_BYTES = 16 * 1024 * 1024

#: connection-teardown errors are routine under load; this guard keeps an
#: error storm visible (one structured line per token, a counter always)
#: without flooding stderr
_HANDLER_ERROR_LOG = telemetry.RateLimitedLog(
    rate=5.0, burst=10, suppressed_counter="serve.handler_errors_suppressed"
)


def json_safe(value: Any) -> Any:
    """``value`` with every non-finite float replaced by ``None``.

    ``json.dumps(..., allow_nan=True)`` emits bare ``NaN``/``Infinity``
    tokens, which are not JSON; a monitor window with an undefined metric
    (say, disparate impact with an empty privileged group) must not make
    the whole /metrics response unparseable to strict clients.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    return value


def dumps_strict(payload: Any) -> bytes:
    """Serialize to strict (RFC 8259) JSON bytes; non-finite floats -> null.

    Non-finite values are rare, so the common case serializes directly
    (``allow_nan=False`` raises on them) and only the failure pays for the
    recursive :func:`json_safe` rebuild.
    """
    try:
        return json.dumps(payload, allow_nan=False).encode("utf-8")
    except ValueError:
        return json.dumps(json_safe(payload), allow_nan=False).encode("utf-8")


class ScoringService:
    """Request-handling core, independent of the HTTP plumbing (testable).

    ``max_batch`` > 1 routes single-record payloads through a
    :class:`MicroBatcher` (bounded queue + dispatcher thread) so concurrent
    point queries are scored in one vectorized pass; ``max_batch=1``
    preserves the inline thread-per-request behavior.

    Every serving number lives in the service's own
    :class:`~repro.telemetry.metrics.MetricsRegistry` (``instruments``),
    never in the process-global one, so services sharing a process keep
    separate counts and ``REPRO_TELEMETRY=0`` leaves ``/metrics`` intact.
    """

    def __init__(
        self,
        engine: ScoringEngine,
        model_id: str = "unknown",
        monitor: Optional[FairnessMonitor] = None,
        max_batch: int = 1,
        max_wait_ms: float = 2.0,
        max_queue: int = 1024,
    ):
        self.engine = engine
        self.model_id = model_id
        if monitor is not None:
            self.engine.monitor = monitor
        self.monitor = self.engine.monitor
        self._batcher: Optional[MicroBatcher] = None
        if max_batch > 1:
            self._batcher = MicroBatcher(
                engine,
                max_batch=max_batch,
                max_wait_ms=max_wait_ms,
                max_queue=max_queue,
            )
        self.instruments = MetricsRegistry()
        self._succeeded = self.instruments.counter("serve.successes")
        self._failed = self.instruments.counter("serve.errors")
        self._scored = self.instruments.counter("serve.records_scored")
        self._latency_ms = self.instruments.histogram(
            "serve.request_latency_ms", telemetry.LATENCY_BOUNDS_MS
        )
        self._lock = threading.Lock()
        self._inflight = 0  # guarded-by: _lock
        self._started_at = time.time()
        # set by the fleet layer: a FleetView makes /healthz and /metrics
        # aggregate across workers; draining=True closes keep-alive
        # connections after each response during graceful shutdown
        self.fleet: Optional[Any] = None
        self.draining = False

    def close(self) -> None:
        """Stop the batching dispatcher (no-op for inline services)."""
        if self._batcher is not None:
            self._batcher.close()

    def drain(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: wait out in-flight work, then close.

        Blocks until no request is being scored and the batching queue is
        empty (or ``timeout`` expires), then closes the batcher — whose own
        drain contract flushes anything still queued and fails leftovers
        with a typed error. Callers stop accepting new connections first;
        this only waits for work already in the building.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                inflight = self._inflight
            depth = 0.0
            if self._batcher is not None:
                depth = self._batcher.stats()["queue_depth"]
            if inflight == 0 and depth == 0:
                break
            time.sleep(0.01)
        self.close()

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        spec = self.engine.pipeline.spec
        out = {
            "status": "ok",
            "model_id": self.model_id,
            "dataset": spec.name,
            "protected_attribute": self.engine.pipeline.protected_attribute,
            "schema_fingerprint": self.engine.pipeline.schema_fingerprint(),
            "uptime_seconds": time.time() - self._started_at,
        }
        if self.fleet is not None:
            out.update(self.fleet.health(self))
        return out

    def metrics(self) -> Dict[str, Any]:
        if self.fleet is not None:
            return self.fleet.metrics(self)
        return metrics_payload([self.state()])

    def state(self) -> Dict[str, Any]:
        """This worker's raw state: liveness, monitor window, and one
        ``telemetry`` registry state (the service's instruments, the
        batcher's, and the process registry, merged). :func:`metrics_payload`
        turns a list of these into ``/metrics``; the fleet ships them over
        its control sockets."""
        with self._lock:
            inflight = self._inflight
        registries = [self.instruments.state(), telemetry.metrics_state()]
        out: Dict[str, Any] = {
            "pid": os.getpid(),
            "uptime_seconds": time.time() - self._started_at,
            "inflight": inflight,
            "queue_depth": 0.0,
        }
        if self._batcher is not None:
            batcher = self._batcher.state()
            registries.append(batcher)
            out["queue_depth"] = batcher["gauges"][QUEUE_DEPTH]
        if self.monitor is not None:
            out["monitor"] = self.monitor.state()
        out["telemetry"] = telemetry.merge_states(registries)
        return out

    def score(self, payload: Any) -> Dict[str, Any]:
        """Score a parsed JSON payload (single record or batch)."""
        started = time.time()
        result: Optional[Dict[str, Any]] = None
        with self._lock:
            self._inflight += 1
        try:
            if isinstance(payload, dict) and "records" in payload:
                records = payload["records"]
                if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
                    raise ValueError('"records" must be a list of objects')
                result = self._score_batch(records)
            elif isinstance(payload, dict):
                if self._batcher is not None:
                    result = self._batcher.score(payload)
                else:
                    result = self.engine.score_record(payload)
                result = {"records_scored": 1, **result}
            else:
                raise ValueError(
                    "payload must be a record object or {'records': [...]}"
                )
            return result
        finally:
            # an error is an exception out of this call; records_scored
            # never counts a failed request
            self._latency_ms.observe((time.time() - started) * 1000.0)
            if result is None:
                self._failed.inc()
            else:
                self._scored.inc(result.get("records_scored", 0))
                self._succeeded.inc()
            with self._lock:
                self._inflight -= 1

    def _score_batch(self, records: List[Dict[str, Any]]) -> Dict[str, Any]:
        if not records:
            return {"records_scored": 0, "labels": [], "scores": []}
        batch = self.engine.score_batch(records)
        out: Dict[str, Any] = {
            "records_scored": batch.num_scored,
            "labels": [float(v) for v in batch.labels],
            "scores": None if batch.scores is None else [float(v) for v in batch.scores],
        }
        if not batch.row_mask.all():
            out["scored_rows"] = [int(i) for i in batch.row_mask.nonzero()[0]]
        return out


def request_summary(state: Dict[str, Any]) -> Dict[str, Any]:
    """Request counts and latency read from one (merged) registry state.

    ``requests`` is derived, never stored, so ``requests == successes +
    errors`` holds by construction in every worker's state and in any sum
    of them. Latency quantiles are the upper bounds of the histogram
    buckets that hold them (``None`` in the overflow bucket).
    """
    counters = state["counters"]
    successes = counters.get("serve.successes", 0)
    errors = counters.get("serve.errors", 0)
    out: Dict[str, Any] = {
        "requests": successes + errors,
        "successes": successes,
        "errors": errors,
        "records_scored": counters.get("serve.records_scored", 0),
    }
    latency = state["histograms"].get("serve.request_latency_ms")
    if latency is not None and latency["count"]:
        out["latency_ms"] = {
            name: bucket_quantile(latency, q)
            for name, q in (("p50", 0.50), ("p95", 0.95), ("max", 1.0))
        }
    return out


def metrics_payload(states: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The ``/metrics`` document of one or more workers' states.

    ``states`` are :meth:`ScoringService.state` dicts: one for a single
    process, every reachable worker's for a fleet. Their ``telemetry``
    blocks are merged once and every count is read from the merge; the
    monitor windows are combined by
    :meth:`~repro.serve.monitor.FairnessMonitor.from_states`, so alerts
    are evaluated over the whole window.
    """
    merged = telemetry.merge_states(state["telemetry"] for state in states)
    out = request_summary(merged)
    if BATCH_SIZE in merged["histograms"]:
        out["batching"] = batching_stats(merged)
    monitors = [state["monitor"] for state in states if "monitor" in state]
    if monitors:
        monitor = FairnessMonitor.from_states(monitors)
        snapshot = monitor.snapshot()
        out["monitor"] = snapshot
        out["alerts"] = [alert.describe() for alert in monitor.check(snapshot)]
    out["handler_errors"] = merged["counters"].get("serve.handler_errors", 0)
    out["telemetry"] = merged
    return out


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    422: "Unprocessable Entity",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}
_MAX_LINE = 65536


def make_server(
    service: ScoringService,
    host: str = "127.0.0.1",
    port: int = 8080,
    reuse_port: bool = False,
) -> ThreadingHTTPServer:
    """Build a ready-to-serve ThreadingHTTPServer bound to the service.

    The connection handler is a minimal HTTP/1.1 loop instead of
    :class:`BaseHTTPRequestHandler`: persistent connections (one thread
    serves many requests, no per-request TCP setup), single-write buffered
    responses with ``TCP_NODELAY`` (the stdlib handler's unbuffered header
    writes interact with Nagle + delayed ACKs into ~40ms stalls per
    keep-alive response), and a scan of only the few headers this endpoint
    acts on — the stdlib's email-module header parsing is pure per-request
    overhead here.

    Fleet hook: ``reuse_port=True`` binds with ``SO_REUSEPORT``, so sibling
    workers can bind the same address and let the kernel spread
    connections across them.
    """

    class Handler(StreamRequestHandler):
        wbufsize = 64 * 1024  # buffer each response into one TCP segment
        disable_nagle_algorithm = True
        # idle keep-alive connections time out instead of pinning a handler
        # thread forever when a peer dies without closing
        timeout = 120

        def handle(self):
            try:
                while self._one_request():
                    pass
            except (ConnectionError, socket.timeout, BrokenPipeError):
                # client went away; nothing to answer, but make the
                # disconnect visible to fleet-level dashboards
                telemetry.counter("serve.client_disconnects").inc()

        # --------------------------------------------------------------
        def _one_request(self) -> bool:
            """Serve one request; return True to keep the connection."""
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self._respond(431, {"error": "request line too long"}, False)
                return False
            if not line.endswith(b"\n"):
                return False  # EOF, possibly mid-line: no request to answer
            try:
                method, path, version = line.split()
            except ValueError:
                self._respond(400, {"error": "malformed request line"}, False)
                return False
            keep_alive_default = version != b"HTTP/1.0"
            keep_alive = keep_alive_default
            content_length: Optional[int] = None
            while True:
                header = self.rfile.readline(_MAX_LINE + 1)
                if not header or len(header) > _MAX_LINE:
                    self._respond(431, {"error": "request headers too long"}, False)
                    return False
                if header in (b"\r\n", b"\n"):
                    break
                name, colon, value = header.partition(b":")
                if not colon:
                    continue
                name = name.strip().lower()
                value = value.strip()
                if name == b"content-length":
                    # plain ASCII digits only (int() would also take "+5"
                    # and "1_0", and refuse 5000 digits by raising), and
                    # repeats must agree: framing that two parsers could
                    # read differently is a smuggling vector
                    if (
                        not value.isdigit()
                        or len(value) > 18
                        or content_length not in (None, int(value))
                    ):
                        self._respond(400, {"error": "bad Content-Length"}, False)
                        return False
                    content_length = int(value)
                elif name == b"transfer-encoding":
                    # a proxy honouring it would frame the body differently
                    # from a Content-Length reading; refuse, never guess
                    self._respond(
                        501, {"error": "Transfer-Encoding is not supported"}, False
                    )
                    return False
                elif name == b"connection":
                    token = value.lower()
                    keep_alive = (
                        token != b"close"
                        if keep_alive_default
                        else token == b"keep-alive"
                    )
                elif name == b"expect" and b"100-continue" in value.lower():
                    self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
                    self.wfile.flush()
            return self._dispatch(
                method, path.decode("latin-1"), content_length or 0, keep_alive
            )

        def _dispatch(
            self, method: bytes, path: str, length: int, keep_alive: bool
        ) -> bool:
            if method not in (b"GET", b"POST"):
                route = method.decode("latin-1")
                return self._respond(
                    501, {"error": f"unsupported method {route}"}, False
                )
            # every route consumes its body, so body bytes are never parsed
            # as the next keep-alive request; one too large to read is left
            # unread and the connection closes after the answer
            body = b""
            if length > MAX_BODY_BYTES:
                keep_alive = False
            elif length:
                body = self.rfile.read(length)
            route, _, query = path.partition("?")
            if method == b"GET" and route in ("/healthz", "/metrics"):
                try:
                    if route == "/healthz":
                        return self._respond(200, service.health(), keep_alive)
                    if "format=prometheus" in query:
                        return self._respond_text(
                            200, render_exposition(service.metrics()), keep_alive
                        )
                    return self._respond(200, service.metrics(), keep_alive)
                except Exception as error:  # pragma: no cover - defensive
                    return self._respond(
                        500,
                        {"error": f"{type(error).__name__}: {error}"},
                        keep_alive,
                    )
            if method == b"GET" or route != "/score":
                return self._respond(404, {"error": f"no route {path}"}, keep_alive)
            if not body:
                return self._respond(
                    400, {"error": "missing or oversized request body"}, False
                )
            try:
                payload = json.loads(body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as error:
                return self._respond(
                    400, {"error": f"invalid JSON: {error}"}, keep_alive
                )
            try:
                return self._respond(200, service.score(payload), keep_alive)
            except BatcherClosed as error:
                # shutting down: answer, then close so the client reconnects
                # (and lands on a surviving worker in fleet mode)
                return self._respond(503, {"error": str(error)}, False)
            except ServiceOverloaded as error:
                return self._respond(503, {"error": str(error)}, keep_alive)
            except (KeyError, ValueError, TypeError) as error:
                return self._respond(422, {"error": str(error)}, keep_alive)
            except Exception as error:  # pragma: no cover - defensive
                return self._respond(
                    500, {"error": f"{type(error).__name__}: {error}"}, keep_alive
                )

        def _respond(
            self, status: int, payload: Dict[str, Any], keep_alive: bool
        ) -> bool:
            return self._send(
                status, dumps_strict(payload), "application/json", keep_alive
            )

        def _respond_text(
            self, status: int, text: str, keep_alive: bool
        ) -> bool:
            return self._send(
                status,
                text.encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
                keep_alive,
            )

        def _send(
            self, status: int, body: bytes, content_type: str, keep_alive: bool
        ) -> bool:
            if service.draining:
                # finish this response, then hand the connection back so
                # the worker can exit without stranding keep-alive peers
                keep_alive = False
            reason = _REASONS.get(status, "Unknown")
            connection = "keep-alive" if keep_alive else "close"
            head = (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {connection}\r\n"
                "\r\n"
            ).encode("latin-1")
            self.wfile.write(head + body)
            self.wfile.flush()
            return keep_alive

    class Server(ThreadingHTTPServer):
        daemon_threads = True
        # queue bursts at the socket instead of refusing connections while
        # every handler thread is busy
        request_queue_size = 128

        def handle_error(self, request, client_address):
            # connection teardown races are routine under load; everything
            # else is already answered with a 500 by the handler. Count
            # every one (an error storm must show in /metrics) and log a
            # structured line while the rate budget lasts.
            handle_connection_error(client_address)

    server = Server((host, port), Handler, bind_and_activate=False)
    try:
        if reuse_port:
            server.socket.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
            )
        server.server_bind()
        server.server_activate()
    except BaseException:
        server.server_close()
        raise
    return server


def handle_connection_error(client_address: Any) -> None:
    """Record one connection-handler failure (called from an ``except``).

    The telemetry counter makes error storms visible in ``/metrics``
    (``handler_errors``, summed fleet-wide); the structured stderr line is
    token-bucket rate-limited so a storm reports its first few instances
    plus a suppressed count instead of flooding the tty.
    """
    telemetry.counter("serve.handler_errors").inc()
    error = sys.exc_info()[1]
    address = None
    if isinstance(client_address, tuple) and len(client_address) >= 2:
        address = f"{client_address[0]}:{client_address[1]}"
    _HANDLER_ERROR_LOG.log(
        {
            "event": "serve.handler_error",
            "pid": os.getpid(),
            "client": address,
            "error": (
                f"{type(error).__name__}: {error}"
                if error is not None
                else "unknown"
            ),
            "suppressed": _HANDLER_ERROR_LOG.suppressed,
        }
    )


def render_exposition(metrics: Dict[str, Any]) -> str:
    """Prometheus text form of a :func:`metrics_payload` (local or fleet):
    its merged registry state plus the derived ``serve.requests`` series
    and, for a fleet, its size and live-worker gauges."""
    derived: Dict[str, Any] = {
        "counters": {"serve.requests": metrics["requests"]},
        "gauges": {},
    }
    fleet = metrics.get("fleet")
    if isinstance(fleet, dict):
        derived["gauges"] = {
            "serve.fleet_size": float(fleet["size"]),
            "serve.workers_alive": float(fleet["workers_alive"]),
        }
    return telemetry.render_prometheus(
        telemetry.merge_states([derived, metrics.get("telemetry")])
    )
