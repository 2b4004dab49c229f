"""Request framing of the hand-written HTTP/1.1 loop in ``make_server``.

Driven over loopback TCP against a deterministic fake service, so every
byte the server writes is a function of the bytes it was sent: GET
bodies are consumed (not parsed as the next request), ``Content-Length``
must be plain digits that agree when repeated, ``Transfer-Encoding`` is
refused, and — fuzzed with hypothesis — a valid stream split at any byte
boundaries gets the same bytes back as the unsplit one, while garbage
never yields more answers than request lines or an answer after
``Connection: close``.
"""

import socket
import threading

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.serve.service import MAX_BODY_BYTES, make_server

TIMEOUT = 5.0


class _FakeService:
    """The three calls the HTTP loop makes, with fixed answers."""

    fleet = None
    draining = False

    def health(self):
        return {"status": "ok"}

    def metrics(self):
        return {"requests": 3, "telemetry": {"counters": {"serve.successes": 3}}}

    def score(self, payload):
        return {"records_scored": 1, "echo": payload}


@pytest.fixture(scope="module")
def port():
    server = make_server(_FakeService(), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=TIMEOUT)


def exchange(port, chunks):
    """Send ``chunks`` one by one, half-close, and read until the server
    closes. A reset after the server closed early ends the read; the
    bytes received before it still count."""
    received = []
    with socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            for chunk in chunks:
                sock.sendall(chunk)
            sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server answered and closed before reading it all
        try:
            while True:
                data = sock.recv(65536)  # socket.timeout fails the test
                if not data:
                    break
                received.append(data)
        except ConnectionResetError:
            pass
    return b"".join(received)


def responses(data):
    """``(status, headers)`` of each final response; 1xx are skipped."""
    out = []
    while data:
        head, sep, data = data.partition(b"\r\n\r\n")
        assert sep, f"truncated response head {head!r}"
        status_line, *header_lines = head.split(b"\r\n")
        status = int(status_line.split()[1])
        headers = {}
        for line in header_lines:
            name, _, value = line.partition(b":")
            headers[name.strip().lower()] = value.strip()
        if 100 <= status < 200:
            continue
        length = int(headers[b"content-length"])
        assert len(data) >= length, "truncated response body"
        data = data[length:]
        out.append((status, headers))
    return out


class TestBodyFraming:
    def test_get_body_is_consumed_not_parsed_as_a_request(self, port):
        # the 25 body bytes are a complete request line; before the fix
        # they were answered as a second, smuggled request
        stream = (
            b"GET /healthz HTTP/1.1\r\nContent-Length: 25\r\n\r\n"
            b"GET /metrics HTTP/1.1\r\n\r\n"
        )
        got = responses(exchange(port, [stream]))
        assert [status for status, _ in got] == [200]

    def test_unreadable_body_is_answered_then_closed(self, port):
        stream = (
            f"GET /healthz HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}"
            "\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n"
        ).encode()
        got = responses(exchange(port, [stream]))
        assert [(s, h[b"connection"]) for s, h in got] == [(200, b"close")]

    @pytest.mark.parametrize(
        "headers, status",
        [
            (b"Content-Length: 1_0", 400),
            (b"Content-Length: +5", 400),
            (b"Content-Length: -5", 400),
            (b"Content-Length: 0x5", 400),
            (b"Content-Length: \xef\xbc\x95", 400),  # fullwidth digit five
            (b"Content-Length: 5\r\nContent-Length: 6", 400),
            (b"Transfer-Encoding: chunked\r\nContent-Length: 8", 501),
            (b"Content-Length: 8\r\nTransfer-Encoding: identity", 501),
        ],
    )
    def test_ambiguous_framing_is_refused_and_closed(self, port, headers, status):
        stream = (
            b"POST /score HTTP/1.1\r\n" + headers + b"\r\n\r\n"
            b'{"a": 1}GET /healthz HTTP/1.1\r\n\r\n'
        )
        got = responses(exchange(port, [stream]))
        assert [(s, h[b"connection"]) for s, h in got] == [(status, b"close")]

    def test_repeated_equal_content_length_is_accepted(self, port):
        stream = (
            b"POST /score HTTP/1.1\r\nContent-Length: 8\r\nContent-Length: 8"
            b'\r\n\r\n{"a": 1}GET /healthz HTTP/1.1\r\n\r\n'
        )
        got = responses(exchange(port, [stream]))
        assert [status for status, _ in got] == [200, 200]


# ----------------------------------------------------------------------
# fuzzing
# ----------------------------------------------------------------------
FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _request(method, path, body=b"", extra=()):
    lines = [b"%s %s HTTP/1.1" % (method, path), *extra]
    if body:
        lines.append(b"Content-Length: %d" % len(body))
    return b"\r\n".join(lines) + b"\r\n\r\n" + body


_json_bodies = st.dictionaries(
    st.text("abc", min_size=1, max_size=3), st.integers(-9, 9), max_size=3
).map(lambda d: repr(d).replace("'", '"').encode())

valid_requests = st.one_of(
    st.sampled_from(
        [b"/healthz", b"/metrics", b"/metrics?format=prometheus", b"/nope"]
    ).map(lambda path: _request(b"GET", path)),
    st.builds(
        lambda body, expect: _request(
            b"POST", b"/score", body, [b"Expect: 100-continue"] if expect else []
        ),
        _json_bodies,
        st.booleans(),
    ),
    _json_bodies.map(lambda body: _request(b"GET", b"/healthz", body)),
    _json_bodies.map(lambda body: _request(b"POST", b"/elsewhere", body)),
)


@st.composite
def split_streams(draw):
    stream = b"".join(draw(st.lists(valid_requests, min_size=1, max_size=5)))
    cuts = draw(st.lists(st.integers(1, len(stream) - 1), max_size=12, unique=True))
    edges = [0, *sorted(cuts), len(stream)]
    return stream, [stream[a:b] for a, b in zip(edges, edges[1:])]


@FUZZ
@given(split_streams())
def test_split_stream_gets_byte_identical_responses(port, case):
    stream, chunks = case
    whole = exchange(port, [stream])
    assert len(responses(whole)) == stream.count(b" HTTP/1.1\r\n")
    assert exchange(port, chunks) == whole


_header_lines = st.sampled_from(
    [
        b"Content-Length: 4",
        b"Content-Length: 0",
        b"Content-Length: 99",
        b"Content-Length: -1",
        b"Content-Length: 1_0",
        b"Content-Length: +3",
        b"Content-Length: abc",
        b"Content-Length: 3\r\nContent-Length: 4",
        b"Content-Length: 4\r\nContent-Length: 4",
        b"Transfer-Encoding: chunked",
        b"Expect: 100-continue",
        b"Connection: close",
        b"Connection: keep-alive",
        b"X-No-Colon-Here",
    ]
)
# bodies never hold a line break, so each unit adds exactly one line that
# can be read as a request line however its framing is misread
_no_newline = st.binary(max_size=12).map(lambda b: b.replace(b"\n", b"."))


@st.composite
def garbage_units(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(_no_newline) + b"\r\n"
    method = draw(st.sampled_from([b"GET", b"POST", b"PUT", b"G\x00T"]))
    path = draw(st.sampled_from([b"/healthz", b"/metrics", b"/score", b"/x"]))
    version = draw(st.sampled_from([b"HTTP/1.1", b"HTTP/1.0"]))
    headers = draw(st.lists(_header_lines, max_size=4))
    head = b"\r\n".join([b"%s %s %s" % (method, path, version), *headers])
    return head + b"\r\n\r\n" + draw(_no_newline)


@FUZZ
@given(st.lists(garbage_units(), min_size=1, max_size=6))
# a fragment left at EOF is no request line: it used to get a 400
@example([b"GET /healthz HTTP/1.1\r\n\r\n\x00"])
def test_garbage_never_yields_extra_or_post_close_answers(port, units):
    got = responses(exchange(port, [b"".join(units)]))
    assert len(got) <= len(units)
    # a response announcing close is the last one on the connection
    assert all(h[b"connection"] == b"keep-alive" for _, h in got[:-1])
