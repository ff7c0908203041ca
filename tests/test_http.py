"""Tests for the HTTP/SSE front end: the wire protocol
(:mod:`repro.service.http`) over both services, the SSE event-stream
shape, the error paths, and the differential digest gate that keeps
the virtual-clock in-process harness the correctness oracle for
everything served over HTTP.

The server here runs on a ``VirtualClock`` service with no
housekeeping tick, so time moves exactly when submissions and SSE
pumping move it -- HTTP serving stays fully deterministic and
byte-comparable to in-process serving.
"""

import contextlib
import io
import json
import logging
import re
import socket
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import DelayModel, ExecutionConfig, SharingMode
from repro.data.figure1 import figure1_federation
from repro.data.inverted import InvertedIndex
from repro.obs.trace import Tracer
from repro.service import (
    HttpQueryClient,
    HttpServerThread,
    LoadConfig,
    QService,
    ShardedQService,
    answers_digest,
    generate_load,
    handles_digest,
)

CARDS = {
    "UP": 60, "TP": 50, "E": 40, "E2M": 70, "I2G": 70,
    "T": 60, "TS": 65, "G2G": 75, "GI": 60, "RL": 65,
}
K = 8
KWS = ("protein", "plasma membrane")


@pytest.fixture(scope="module")
def fed():
    return figure1_federation(seed=7, cardinalities=dict(CARDS),
                              domain_factor=0.7)


@pytest.fixture(scope="module")
def index(fed):
    return InvertedIndex(fed)


def config(**overrides):
    base = ExecutionConfig(mode=SharingMode.ATC_FULL, k=K, seed=1,
                           batch_window=2.0,
                           delays=DelayModel(deterministic=True))
    return base.with_overrides(**overrides)


def make_service(fed, index, **kwargs):
    return QService(fed, config(), index=index, **kwargs)


@pytest.fixture()
def served(fed, index):
    """A virtual-clock service behind a live HTTP server, plus its
    blocking client."""
    service = make_service(fed, index)
    with HttpServerThread(service) as srv:
        yield service, HttpQueryClient("127.0.0.1", srv.port)


class TestEndpoints:
    def test_healthz_reports_clock_family(self, served):
        _service, client = served
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["clock"] == "VirtualClock"
        assert health["now"] == 0.0
        assert health["queries"] == 0

    def test_submit_returns_snapshot_and_events_url(self, served):
        _service, client = served
        out = client.submit(KWS, k=K, query_id="q1")
        assert out["query_id"] == "q1"
        # Arrival 0.0 falls inside the window the batcher opens at
        # construction, so the query is dispatched on admission.
        assert out["status"] == "in-flight"
        assert out["events"] == "/query/q1/events"
        assert out["arrival"] == 0.0
        assert client.status("q1")["status"] == "in-flight"

    def test_server_assigns_ids_when_omitted(self, served):
        _service, client = served
        first = client.submit(KWS, k=K)
        second = client.submit(KWS, k=K)
        assert first["query_id"] == "http-1"
        assert second["query_id"] == "http-2"

    def test_timeout_becomes_absolute_deadline(self, served):
        _service, client = served
        out = client.submit(KWS, k=K, query_id="q1", arrival=3.0,
                            timeout=2.5)
        assert out["deadline"] == 5.5

    def test_metrics_renders_prometheus_text(self, served):
        _service, client = served
        client.submit(KWS, k=K, query_id="q1")
        text = client.metrics()
        assert "# TYPE" in text
        assert "repro_admission_accepted_total" in text

    def test_trace_404_without_tracer(self, served):
        _service, client = served
        client.submit(KWS, k=K, query_id="q1")
        with pytest.raises(RuntimeError, match="404"):
            client.trace("q1")

    def test_trace_jsonl_with_tracer(self, fed, index):
        service = make_service(fed, index, tracer=Tracer())
        with HttpServerThread(service) as srv:
            client = HttpQueryClient("127.0.0.1", srv.port)
            client.submit(KWS, k=K, query_id="q1")
            _answers, end = client.stream("q1")
            assert end["disposition"] == "done"
            lines = client.trace("q1")
            assert lines, "finished query must have a span tree"
            for line in lines:
                assert json.loads(line)["query"] == "q1"

    def test_trace_over_a_process_fleet_holds_the_worker_spans(self, fed):
        """A process worker records its spans in its own tracer; the
        endpoint serves the merged tree, terminal disposition included,
        not just the front door's ``cache_lookup`` and ``route``."""
        from repro.obs.export import validate_trace_lines
        from repro.service import WorkerSpec

        spec = WorkerSpec.figure1(config(), seed=7, cardinalities=dict(CARDS),
                                  domain_factor=0.7)
        service = ShardedQService(fed, config(), n_shards=2,
                                  tracer=Tracer(), workers="process",
                                  worker_spec=spec)
        try:
            with HttpServerThread(service) as srv:
                client = HttpQueryClient("127.0.0.1", srv.port)
                client.submit(KWS, k=K, query_id="q1")
                _answers, end = client.stream("q1")
                assert end["disposition"] == "done"
                lines = client.trace("q1")
        finally:
            service.close()
        assert validate_trace_lines(lines) == []
        spans = [json.loads(line) for line in lines]
        names = [span["name"] for span in spans]
        assert "optimize" in names
        terminal = [span for span in spans if span["name"] == "terminal"]
        assert [t["attrs"]["disposition"] for t in terminal] == ["done"]


class TestSseStream:
    def test_event_shape_status_answers_end(self, served):
        """One ``status`` event, one ``answer`` per ranked answer with
        sequential ranks, then one ``end`` carrying the disposition."""
        _service, client = served
        client.submit(KWS, k=K, query_id="q1")
        events = list(client.events("q1"))
        names = [name for name, _payload in events]
        assert names[0] == "status"
        assert names[-1] == "end"
        answers = [payload for name, payload in events if name == "answer"]
        assert names == ["status"] + ["answer"] * len(answers) + ["end"]
        assert len(answers) == K
        assert [a["rank"] for a in answers] == list(range(K))
        scores = [a["score"] for a in answers]
        assert scores == sorted(scores, reverse=True)
        for a in answers:
            assert all(isinstance(rel, str) and isinstance(tid, int)
                       for _alias, rel, tid in a["rows"])
        end = events[-1][1]
        assert end["disposition"] == "done"
        assert end["answers"] == K
        assert end["completed_at"] is not None

    def test_streaming_matches_terminal_snapshot(self, served):
        _service, client = served
        client.submit(KWS, k=K, query_id="q1")
        streamed, _end = client.stream("q1")
        snapshot = client.status("q1")
        assert snapshot["status"] == "done"
        assert snapshot["answers"] == streamed

    def test_cancel_then_stream_reports_cancelled(self, served):
        service, client = served
        client.submit(KWS, k=K, query_id="q1")
        out = client.cancel("q1")
        assert out["cancelled"] is True
        assert out["status"] == "cancelled"
        answers, end = client.stream("q1")
        assert answers == []
        assert end["disposition"] == "cancelled"
        assert service.report().telemetry.cancelled == 1

    def test_second_cancel_is_noop(self, served):
        _service, client = served
        client.submit(KWS, k=K, query_id="q1")
        assert client.cancel("q1")["cancelled"] is True
        again = client.cancel("q1")
        assert again["cancelled"] is False
        assert again["status"] == "cancelled"

    def test_deadline_at_arrival_expires_over_http(self, served):
        """The clock-edge pin, observed through the wire: a query whose
        deadline equals its arrival ends ``expired`` with zero
        answers."""
        _service, client = served
        out = client.submit(KWS, k=K, query_id="q1", arrival=1.0,
                            deadline=1.0)
        assert out["deadline"] == 1.0
        answers, end = client.stream("q1")
        assert answers == []
        assert end["disposition"] == "expired"
        assert end["completed_at"] == 1.0


class TestErrorPaths:
    def test_empty_keywords_is_400(self, served):
        _service, client = served
        status, body = client._request("POST", "/query", {"keywords": []})
        assert status == 400
        assert "keywords" in body["error"]

    def test_non_json_body_is_400(self, served):
        import http.client
        _service, client = served
        conn = http.client.HTTPConnection(client.host, client.port,
                                          timeout=10)
        try:
            conn.request("POST", "/query", body=b"not json{",
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 400
        finally:
            conn.close()

    @pytest.mark.parametrize("field,value", [
        ("k", -1), ("k", 0), ("k", 2.5), ("k", True), ("k", "3"),
        ("arrival", True), ("arrival", float("nan")), ("arrival", "now"),
        ("deadline", False), ("deadline", float("-inf")),
        ("timeout", True), ("timeout", float("inf")),
        pytest.param("timeout", 10 ** 400, id="timeout-overflows-float"),
    ])
    def test_bad_number_is_400(self, served, field, value):
        """Booleans are ``int``s and ``json.loads`` admits NaN/Infinity:
        none may be admitted as a ``k``, an instant or a duration."""
        service, client = served
        status, body = client._request(
            "POST", "/query", {"keywords": list(KWS), field: value})
        assert status == 400
        assert f'"{field}"' in body["error"]
        assert service.report().telemetry.submitted == 0
        assert client._request("GET", "/healthz")[0] == 200

    def test_deadline_and_timeout_together_is_400(self, served):
        _service, client = served
        status, _body = client._request(
            "POST", "/query",
            {"keywords": list(KWS), "deadline": 5.0, "timeout": 1.0})
        assert status == 400

    def test_unknown_query_is_404(self, served):
        _service, client = served
        status, body = client._request("GET", "/query/nope")
        assert status == 404
        assert "nope" in body["error"]

    def test_unknown_route_is_404(self, served):
        _service, client = served
        status, _body = client._request("GET", "/frobnicate")
        assert status == 404

    def test_duplicate_id_is_409(self, served):
        _service, client = served
        client.submit(KWS, k=K, query_id="q1")
        status, body = client._request(
            "POST", "/query", {"keywords": list(KWS), "id": "q1"})
        assert status == 409
        assert "q1" in body["error"]

    @pytest.mark.parametrize("length", ["-5", "abc", str(2 << 20)])
    def test_bad_content_length_is_400(self, served, length):
        """A negative, non-numeric or over-cap Content-Length is
        answered, not dropped with a bare close."""
        service, client = served
        reply = _raw_exchange(client.port, (
            f"POST /query HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
        ).encode())
        assert reply.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"
        assert service.report().telemetry.submitted == 0
        assert client.healthz()["queries"] == 0

    def test_truncated_body_is_a_quiet_disconnect(self, fed, index, caplog):
        """A client that half-closes before its declared body arrives
        gets no reply, and the server logs no unhandled error."""
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with HttpServerThread(make_service(fed, index)) as srv:
                reply = _raw_exchange(srv.port, (
                    b'POST /query HTTP/1.1\r\nContent-Length: 100\r\n\r\n'
                    b'{"keywords": '))
                assert reply == b""
                client = HttpQueryClient("127.0.0.1", srv.port)
                assert client.healthz()["queries"] == 0
        assert not [r for r in caplog.records if r.name == "asyncio"]


def _raw_exchange(port: int, request: bytes) -> bytes:
    """Send raw bytes, half-close, and read the reply to EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _read_reply(stream) -> tuple[int, dict[str, str], list[bytes]]:
    """One HTTP reply off a binary stream: the status, the headers
    (names lower-cased) and the body as its chunks -- one element for a
    ``Content-Length`` body, everything up to EOF for a reply framed by
    the close."""
    status_line = stream.readline()
    if not status_line:
        raise EOFError("the connection closed before a reply")
    status = int(status_line.split()[1])
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _sep, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding") == "chunked":
        chunks = []
        while size := int(stream.readline(), 16):
            chunks.append(stream.read(size))
            assert stream.readline() == b"\r\n"
        assert stream.readline() == b"\r\n"     # no trailers
        return status, headers, chunks
    if "content-length" in headers:
        return status, headers, [stream.read(int(headers["content-length"]))]
    return status, headers, [stream.read()]


@contextlib.contextmanager
def _connection(port: int):
    """A raw socket to the server and a binary reader over it."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        with sock.makefile("rb") as stream:
            yield sock, stream


def _post_query(payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    return (b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
            % (len(body), body))


def _metric(text: str, name: str) -> float:
    match = re.search(rf"^{name} (\S+)$", text, re.MULTILINE)
    assert match is not None, f"/metrics has no {name}"
    return float(match.group(1))


class TestKeepAlive:
    """Persistent connections, byte for byte on a raw socket: each test
    first shows the connection outliving an exchange."""

    def test_pipelined_requests_get_replies_in_order(self, served):
        _service, client = served
        with _connection(client.port) as (sock, stream):
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: a\r\n\r\n"
                         b"GET /query/nope HTTP/1.1\r\nHost: a\r\n\r\n")
            first = _read_reply(stream)
            second = _read_reply(stream)
        assert first[0] == 200
        assert json.loads(first[2][0])["status"] == "ok"
        assert "connection" not in first[1]
        assert second[0] == 404
        assert "nope" in json.loads(second[2][0])["error"]

    def test_sse_stream_is_chunked_and_the_connection_serves_on(
            self, served):
        _service, client = served
        with _connection(client.port) as (sock, stream):
            sock.sendall(_post_query(
                {"keywords": list(KWS), "k": K, "id": "q1"}))
            assert _read_reply(stream)[0] == 202
            sock.sendall(b"GET /query/q1/events HTTP/1.1\r\n\r\n")
            status, headers, chunks = _read_reply(stream)
            assert status == 200
            assert headers["content-type"] == "text/event-stream"
            assert headers["transfer-encoding"] == "chunked"
            assert "connection" not in headers
            # One chunk per event, the zero-length chunk after ``end``.
            assert [c.split(b"\n", 1)[0] for c in chunks] == (
                [b"event: status"] + [b"event: answer"] * K
                + [b"event: end"])
            assert all(c.endswith(b"\n\n") for c in chunks)
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert _read_reply(stream)[0] == 200

    @pytest.mark.parametrize("closing", [
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nConnection: TE, Close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
    ], ids=["connection-close", "close-in-a-token-list", "http-1.0",
            "http-1.0-keep-alive"])
    def test_close_and_http_1_0_are_honoured(self, served, closing):
        _service, client = served
        with _connection(client.port) as (sock, stream):
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert _read_reply(stream)[0] == 200
            sock.sendall(closing)
            status, headers, _body = _read_reply(stream)
            assert status == 200
            assert headers["connection"] == "close"
            assert stream.read() == b""

    def test_http_1_0_stream_is_delimited_by_the_close(self, served):
        """Chunked coding is HTTP/1.1: an HTTP/1.0 client gets the
        event stream unframed, ended by the close."""
        _service, client = served
        client.submit(KWS, k=K, query_id="q1")
        with _connection(client.port) as (sock, stream):
            sock.sendall(b"GET /query/q1/events HTTP/1.0\r\n\r\n")
            status, headers, (body,) = _read_reply(stream)
        assert status == 200
        assert "transfer-encoding" not in headers
        assert body.startswith(b"event: status\n")
        assert body.count(b"event: answer\n") == K
        assert body.endswith(b"\n\n") and b"event: end\n" in body

    def test_a_400_closes_the_connection(self, served):
        service, client = served
        with _connection(client.port) as (sock, stream):
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert _read_reply(stream)[0] == 200
            # The pipelined request after the 400 is never answered.
            sock.sendall(_post_query({"keywords": []})
                         + b"GET /healthz HTTP/1.1\r\n\r\n")
            status, headers, _body = _read_reply(stream)
            assert status == 400
            assert headers["connection"] == "close"
            assert stream.read() == b""
        assert service.report().telemetry.submitted == 0

    def test_one_client_runs_a_query_over_one_connection(self, served):
        """The server's own counters: ``submit``, ``events``,
        ``status``, ``cancel`` and ``metrics`` are five requests on one
        connection."""
        _service, client = served
        client.submit(KWS, k=K, query_id="q1")
        _answers, end = client.stream("q1")
        assert end["disposition"] == "done"
        assert client.status("q1")["status"] == "done"
        assert client.cancel("q1")["cancelled"] is False
        metrics = client.metrics()
        assert _metric(metrics, "repro_http_connections_total") == 1
        assert _metric(metrics, "repro_http_requests_total") == 5

    def test_client_reconnects_after_a_dropped_connection(self, served):
        """An abandoned stream, a reply the server closes behind and
        :meth:`close` each cost the next call a new connection."""
        _service, client = served
        client.submit(KWS, k=K, query_id="q1")
        events = client.events("q1")
        assert next(events)[0] == "status"
        events.close()
        status, _body = client._request("POST", "/query", {"keywords": []})
        assert status == 400
        assert client.healthz()["status"] == "ok"
        with HttpQueryClient("127.0.0.1", client.port) as other:
            assert other.healthz()["status"] == "ok"
        assert other.healthz()["status"] == "ok"
        other.close()
        metrics = client.metrics()
        # client: submit+events, the 400, healthz+metrics; other: 2 x 1.
        assert _metric(metrics, "repro_http_connections_total") == 5
        assert _metric(metrics, "repro_http_requests_total") == 7


class TestRequestFraming:
    """Only ``Content-Length`` frames a request body.  Anything that
    leaves the body's end in doubt is a 400 and the connection closes:
    on a kept-alive connection, misread body bytes would be parsed as
    the next request (RFC 9112 6.3)."""

    SMUGGLED = b"GET /healthz HTTP/1.1\r\n\r\n"

    @pytest.mark.parametrize("framing", [
        b"Transfer-Encoding: chunked\r\n",
        b"Transfer-Encoding: chunked\r\nContent-Length: 3\r\n",
    ], ids=["chunked", "chunked-and-content-length"])
    def test_transfer_encoding_is_400(self, served, framing):
        service, client = served
        body = b"%x\r\n%s\r\n0\r\n\r\n" % (len(self.SMUGGLED), self.SMUGGLED)
        reply = io.BytesIO(_raw_exchange(
            client.port, b"POST /query HTTP/1.1\r\n" + framing + b"\r\n"
            + body))
        status, headers, (payload,) = _read_reply(reply)
        assert status == 400
        assert headers["connection"] == "close"
        assert "Transfer-Encoding" in json.loads(payload)["error"]
        assert reply.read() == b"", "the smuggled request was answered"
        assert service.report().telemetry.submitted == 0

    def test_conflicting_content_lengths_are_400(self, served):
        service, client = served
        reply = io.BytesIO(_raw_exchange(
            client.port, b"POST /query HTTP/1.1\r\nContent-Length: 2\r\n"
            b"Content-Length: 27\r\n\r\n{}" + self.SMUGGLED))
        status, headers, (payload,) = _read_reply(reply)
        assert status == 400
        assert headers["connection"] == "close"
        assert "Content-Length" in json.loads(payload)["error"]
        assert reply.read() == b""
        assert service.report().telemetry.submitted == 0

    def test_repeated_equal_content_length_is_one_length(self, served):
        _service, client = served
        body = json.dumps({"keywords": list(KWS), "k": K}).encode()
        reply = io.BytesIO(_raw_exchange(
            client.port, b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), len(body), body)))
        assert _read_reply(reply)[0] == 202


def _mostly(common, rare):
    """``common`` three draws in four, ``rare`` the fourth."""
    return st.sampled_from((common, common, common, rare)).flatmap(
        lambda strategy: strategy)


_TOKEN = st.text(alphabet=string.ascii_letters + string.digits + "-_.",
                 min_size=1, max_size=12)
_JSON_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=12), st.lists(st.text(max_size=12), max_size=3))
_QUERY_ID = st.sampled_from([f"f{i}" for i in range(1, 7)])
#: The routes a client uses, a submit and a stream weighted up.
_ROUTE = st.tuples(
    st.sampled_from([
        ("POST", "/query"), ("POST", "/query"), ("GET", "/query/{}/events"),
        ("GET", "/query/{}/events"), ("GET", "/query/{}"),
        ("POST", "/query/{}/cancel"), ("GET", "/query/{}/trace"),
        ("GET", "/healthz"), ("GET", "/metrics?x=1"), ("GET", "/query/nope"),
    ]),
    _QUERY_ID,
).map(lambda route: f"{route[0][0]} {route[0][1].format(route[1])}")
_REQUEST_LINE = _mostly(
    st.tuples(
        _mostly(_ROUTE, st.tuples(
            st.sampled_from(["PUT", "DELETE", "HEAD", "GET"]) | _TOKEN,
            _TOKEN.map(lambda t: f"/{t}")).map(" ".join)),
        _mostly(st.sampled_from(["HTTP/1.1", "HTTP/1.1", "HTTP/1.0"]),
                st.sampled_from(["HTTP/2.0", "http/1.1", "HTTP/1.1x"])),
    ).map(" ".join),
    # Arbitrary text for a request line, CR and LF aside.
    st.text(alphabet=st.characters(codec="latin-1",
                                   exclude_characters="\r\n"),
            min_size=1, max_size=40),
)
_SUBMIT = st.fixed_dictionaries(
    {"keywords": st.lists(st.sampled_from(
        ["protein", "plasma membrane", "gene", "zzz"]),
        min_size=1, max_size=3), "id": _QUERY_ID},
    optional={"k": st.integers(1, 12), "arrival": st.floats(0, 50),
              "timeout": st.floats(0, 10)})
_BODY = _mostly(
    _SUBMIT.map(lambda d: json.dumps(d).encode()),
    st.one_of(
        st.just(b""), st.binary(max_size=40),
        st.fixed_dictionaries({}, optional={
            name: _JSON_VALUE for name in (
                "keywords", "k", "id", "arrival", "deadline", "timeout")
        }).map(lambda d: json.dumps(d).encode())),
)


@st.composite
def _fuzzed_request(draw) -> tuple[bytes, bool]:
    """Raw request bytes, correctly framed by ``Content-Length``, and
    whether the request itself asks for the connection to close."""
    line = draw(_REQUEST_LINE)
    headers = draw(st.lists(
        st.tuples(_TOKEN.filter(lambda n: n.lower() not in (
            "content-length", "transfer-encoding", "connection")),
            st.text(alphabet=string.printable.strip(), max_size=16)),
        max_size=3))
    close = draw(st.booleans())
    body = draw(_BODY)
    head = [line] + [f"{name}: {value}" for name, value in headers]
    if close:
        head.append("Connection: close")
    head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body, close


class TestFuzz:
    def test_fuzzed_requests_get_a_2xx_or_4xx_and_never_hang(
            self, fed, index):
        """Request lines, headers and bodies from hypothesis, several
        on one persistent connection: every request is answered with a
        2xx or a 4xx before the socket timeout; the connection closes
        exactly after a 400, a ``Connection: close`` or an HTTP/1.0
        request, and the reply says so; and the server still answers a
        fresh ``GET /healthz`` afterwards."""
        service = make_service(fed, index)
        with HttpServerThread(service) as srv:

            @settings(max_examples=60, deadline=None, database=None)
            @given(st.lists(_fuzzed_request(), min_size=1, max_size=4))
            def exchange(requests):
                with _connection(srv.port) as (sock, stream):
                    sock.settimeout(5)
                    for raw, close in requests:
                        sock.sendall(raw)
                        status, headers, _body = _read_reply(stream)
                        assert 200 <= status < 500, status
                        http10 = raw.split(b"\r\n", 1)[0].endswith(
                            b" HTTP/1.0")
                        closing = headers.get("connection") == "close"
                        assert closing == (close or http10
                                           or status == 400)
                        if closing:
                            assert stream.read() == b""
                            return

            exchange()
            health = HttpQueryClient("127.0.0.1", srv.port).healthz()
        assert health["status"] == "ok"


class TestDifferentialDigest:
    """The gate of the PR: the same workload served over HTTP/SSE must
    be answer-for-answer identical to the in-process iterator -- the
    virtual-clock harness stays the correctness oracle for the wire."""

    LOAD = LoadConfig(n_queries=16, rate_qps=1.5, k=6, n_templates=6,
                      vocabulary_size=16, seed=11)

    def test_http_equals_in_process(self, fed, index):
        load = generate_load(fed, self.LOAD, index=index)

        # Wire side: submit each arrival at its instant, stream fully.
        http_service = make_service(fed, index)
        per_query: dict[str, list[dict]] = {}
        with HttpServerThread(http_service) as srv:
            client = HttpQueryClient("127.0.0.1", srv.port)
            for kq in load:
                client.submit(kq.keywords, k=kq.k, query_id=kq.kq_id,
                              arrival=kq.arrival)
                answers, end = client.stream(kq.kq_id)
                assert end is not None and end["disposition"] == "done"
                per_query[kq.kq_id] = answers

        # Oracle side: the identical call sequence, in process.
        oracle = make_service(fed, index)
        handles = []
        for kq in load:
            handle = oracle.submit(kq, arrival=kq.arrival)
            list(handle.results())
            assert handle.done
            handles.append(handle)

        assert answers_digest(per_query) == handles_digest(handles)

    def test_sharded_service_over_http(self, fed, index):
        """The front end is written against the protocol, so the
        sharded fleet serves over the same wire -- and still digests
        identically to the single-node oracle."""
        fleet = ShardedQService(fed, config(), n_shards=2, index=index)
        load = generate_load(fed, self.LOAD, index=index)
        per_query: dict[str, list[dict]] = {}
        with HttpServerThread(fleet) as srv:
            client = HttpQueryClient("127.0.0.1", srv.port)
            for kq in load:
                out = client.submit(kq.keywords, k=kq.k, query_id=kq.kq_id,
                                    arrival=kq.arrival)
                # Engine-served queries carry their shard; cache hits
                # and coalesced followers are served off-shard.
                if out["via"] == "engine":
                    assert out["shard"] in (0, 1)
                answers, end = client.stream(kq.kq_id)
                assert end is not None and end["disposition"] == "done"
                per_query[kq.kq_id] = answers

        oracle = make_service(fed, index)
        handles = []
        for kq in load:
            handle = oracle.submit(kq, arrival=kq.arrival)
            list(handle.results())
            handles.append(handle)

        assert answers_digest(per_query) == handles_digest(handles)
