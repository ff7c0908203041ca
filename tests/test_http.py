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

import json
import logging
import socket

import pytest

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
