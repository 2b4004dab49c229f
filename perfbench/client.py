"""Closed-loop HTTP load from one client thread over a few keep-alive sockets.

Each connection sends its next request only after the previous reply has
fully arrived, so a slow server receives less load and nothing queues in
the client. The connections move in rounds: all send, and the next round
starts once every reply is in. Free-running connections drift in and out
of phase with the server's micro-batcher, and a two-connection loop then
settles into one of two latency modes for a whole run (p99 2.5 ms or
5 ms on a 2-core machine); rounds keep them in phase, so a run measures
the code, not which mode it fell into. One thread drives every connection
through a selector: the
client never competes with itself for the GIL, and it is refused more
connections than the machine has cores, because every extra in-flight
request would compete with the server for a core. A request that gets no
complete reply within its timeout is counted as lost and its connection
is replaced, and a server that stops accepting connections ends the run
with its in-flight requests counted as lost, so a wedged or dead server
costs a run its correctness, never its exit.
"""

from __future__ import annotations

import os
import selectors
import socket
import time
from typing import Callable, List, Optional, Tuple

#: (request index, request id or None, sent, received, status, body)
Sample = Tuple[int, Optional[int], float, float, int, bytes]


class LoadClient:
    def __init__(self, port: int, connections: int, timeout: float = 5.0):
        cores = os.cpu_count() or 1
        if not 1 <= connections <= cores:
            raise ValueError(
                f"{connections} connections requested; allowed 1..{cores} "
                "(one per core, so client load cannot starve the server)"
            )
        self.port = port
        self.connections = connections
        self.timeout = timeout

    def get(self, path: str) -> Tuple[int, bytes]:
        """One blocking GET on a fresh connection."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=self.timeout) as sock:
            sock.sendall(
                f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n".encode()
            )
            buffer = b""
            while True:
                reply = _parse(buffer)
                if reply is not None:
                    return reply[0], reply[1]
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError(f"GET {path}: connection closed mid-reply")
                buffer += chunk

    def run(
        self,
        payload: Callable[[int], Tuple[Optional[int], bytes]],
        seconds: float,
    ) -> Tuple[List[Sample], int, float]:
        """Send requests for ``seconds``; returns (samples, lost, elapsed).

        ``payload(i)`` gives request ``i``'s id and POST body. No request
        starts after ``seconds``; those in flight then finish or time out.
        ``lost`` counts requests that got no complete reply: timed out,
        failed to send, or cut off by a server that no longer accepts
        connections; the refused connection counts too, and ends the run.
        """
        selector = selectors.DefaultSelector()
        samples: List[Sample] = []
        timeouts = 0
        counter = iter(range(1 << 62))
        started = time.perf_counter()
        conns: List[_Conn] = []
        try:
            for _ in range(self.connections):
                conns.append(_Conn(self.port, self.timeout))
                selector.register(conns[-1].sock, selectors.EVENT_READ, conns[-1])
            while time.perf_counter() - started < seconds:
                for conn in conns:
                    try:
                        conn.send(next(counter), payload)
                    except OSError:
                        timeouts += 1
                        _replace(selector, conn)
                while any(c.busy for c in conns):
                    wait = min(c.sent + self.timeout for c in conns if c.busy)
                    for key, _ in selector.select(max(wait - time.perf_counter(), 0.0)):
                        conn = key.data
                        reply = conn.receive()
                        if reply is None:
                            continue
                        status, body, closed = reply
                        samples.append(
                            (conn.index, conn.rid, conn.sent, time.perf_counter(), status, body)
                        )
                        if closed:
                            _replace(selector, conn)
                    now = time.perf_counter()
                    for conn in conns:
                        if conn.busy and now - conn.sent > self.timeout:
                            timeouts += 1
                            _replace(selector, conn)
        except OSError:
            timeouts += 1 + sum(c.busy for c in conns)
        finally:
            selector.close()
            for conn in conns:
                conn.close()
        return samples, timeouts, time.perf_counter() - started


def _replace(selector, conn) -> None:
    selector.unregister(conn.sock)
    conn.reconnect()
    selector.register(conn.sock, selectors.EVENT_READ, conn)


class _Conn:
    def __init__(self, port: int, timeout: float):
        self.port, self.timeout = port, timeout
        self.sock: Optional[socket.socket] = None
        self.busy = False
        self.reconnect()

    def reconnect(self) -> None:
        self.close()
        self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=self.timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        self.busy = False

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def send(self, index: int, payload) -> None:
        self.index = index
        self.rid, body = payload(index)
        head = (
            "POST /score HTTP/1.1\r\nHost: bench\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        self.buffer = b""
        self.busy = True
        self.sent = time.perf_counter()
        self.sock.sendall(head + body)

    def receive(self):
        """Read what is ready; a complete reply as (status, body, closed)."""
        try:
            chunk = self.sock.recv(65536)
        except (ConnectionError, socket.timeout):
            chunk = b""
        if not chunk:
            return (0, b"", True)
        self.buffer += chunk
        reply = _parse(self.buffer)
        if reply is None:
            return None
        self.busy = False
        return reply


def _parse(buffer: bytes):
    """(status, body, server closes) once ``buffer`` holds a whole reply."""
    head, sep, rest = buffer.partition(b"\r\n\r\n")
    if not sep:
        return None
    lines = head.split(b"\r\n")
    status = int(lines[0].split(None, 2)[1])
    length, closes = None, False
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        name = name.strip().lower()
        if name == b"content-length":
            length = int(value)
        elif name == b"connection":
            closes = value.strip().lower() == b"close"
    if length is None:
        raise ConnectionError(f"reply without Content-Length: {head[:200]!r}")
    if len(rest) < length:
        return None
    return status, rest[:length], closes
