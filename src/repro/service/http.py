"""The HTTP/SSE front end: real clients over the v2 query protocol.

The paper's middleware is an *online* service -- Mragyati frames
keyword search as a network service over an operational database --
but everything below this module speaks the in-process client API of
the front door (:class:`~repro.service.sharding.ShardedQService`, or
the single-node :class:`~repro.service.server.QService`, which is that
front door over one shard).  This module puts that API on the wire
with nothing beyond the standard library: an :mod:`asyncio` stream
server parses a minimal slice of HTTP/1.1 and maps
:meth:`QueryHandle.results` onto Server-Sent Events, so top-k answers
stream to a browser-grade client incrementally, exactly as the
in-process iterator delivers them.

Endpoints (all JSON unless noted):

* ``POST /query`` -- submit ``{"keywords": [...], "k": 10, "id": ...,
  "arrival": ..., "deadline": ..., "timeout": ...}``; returns ``202``
  with the handle snapshot and the query's ``events`` URL.  ``id`` is
  optional (the server assigns ``http-N``); ``arrival`` defaults to
  the service clock's current instant; ``deadline`` is absolute on
  that clock, ``timeout`` is relative to the arrival.
* ``GET /query/<id>`` -- the handle snapshot (final answers included
  once terminal).
* ``GET /query/<id>/events`` -- the SSE stream: one ``status`` event,
  an ``answer`` event per ranked answer (``id:`` carries the rank),
  then one ``end`` event whose ``disposition`` is the handle's
  terminal status (``done`` / ``cancelled`` / ``expired`` /
  ``rejected``).  A client that disconnects mid-stream cancels the
  query -- HTTP abandonment *is* the reneging model.
* ``POST /query/<id>/cancel`` -- abandon the query.
* ``GET /query/<id>/trace`` -- the query's span tree as JSONL (404
  when the service runs without a tracer).
* ``GET /healthz`` -- liveness, the clock family, and the clock's now.
* ``GET /metrics`` -- the metrics registry as Prometheus text.
* ``POST /admin/shutdown`` -- stop the server (the CLI then writes
  trace/metrics artifacts).

Clock modes: on a ``VirtualClock`` service the server never advances
time on its own -- time moves exactly when submissions and SSE pumping
move it, which keeps HTTP serving deterministic and lets the
virtual-clock harness stay the correctness oracle (answers streamed
over HTTP are byte-identical to in-process serving; see
:func:`answers_digest`).  On a ``WallClock`` service, pass ``tick`` to
run a housekeeping loop that steps the service every ``tick`` real
seconds, so batch windows close and deadlines fire even while no
client is pumping.

Connections persist (HTTP/1.1 keep-alive): one connection serves its
client's requests one after another, and an SSE reply is sent with
``Transfer-Encoding: chunked`` -- one chunk per event, a zero-length
chunk after ``end`` -- so the connection outlives the stream.  The
server closes a connection after a ``400`` (which says ``Connection:
close``), after a request that says ``Connection: close`` or speaks
HTTP/1.0, on EOF, and at shutdown.

The service object is single-threaded and not thread-safe; every call
into it happens on the event loop (each synchronous service call runs
atomically between await points), so no additional locking is needed.
:class:`HttpServerThread` wraps the loop in a daemon thread for
blocking callers (tests, benchmarks, notebooks), and
:class:`HttpQueryClient` is a matching stdlib blocking client with an
SSE parser.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import itertools
import json
import math
import threading
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING, NamedTuple

from repro.keyword.queries import KeywordQuery, RankedAnswer
from repro.service.handle import QueryHandle

if TYPE_CHECKING:  # pragma: no cover
    import http.client

    from repro.service.sharding import ShardedQService

__all__ = [
    "HttpQueryClient",
    "HttpServerThread",
    "QueryServiceHTTP",
    "answer_payload",
    "answers_digest",
    "handles_digest",
]

#: Upper bound on request head + body; this is a query front end, not
#: a file server.
_MAX_REQUEST_BYTES = 1 << 20


# -- canonical answer form ---------------------------------------------------

def answer_payload(answer: RankedAnswer, rank: int) -> dict:
    """One ranked answer as its wire (SSE ``data:``) payload."""
    return {
        "rank": rank,
        "score": answer.score,
        "cq": answer.cq_id,
        "rows": [[alias, rel, tid]
                 for alias, rel, tid in sorted(answer.provenance)],
    }


def answers_digest(per_query: dict[str, list[dict]]) -> str:
    """SHA-256 over every query's answers in scheduling-independent
    canonical form.

    Mirrors the benchmark gate's ``_answer_key``: the ordered score
    sequence plus the sorted ``(score, rows)`` bag above the top-k
    cutoff score -- rows tying exactly at the cutoff are
    interchangeable members of any valid top-k, so they are excluded
    from the bag (alias names, which depend on plan labelling, are
    likewise excluded).  Two serving paths that return the same
    answers -- whatever their transport, clock family, batching, or
    sharding -- produce byte-identical digests.
    """
    digest = hashlib.sha256()
    for qid in sorted(per_query):
        payloads = per_query[qid]
        scores = [round(p["score"], 9) for p in payloads]
        cutoff = min(scores, default=0.0)
        rows = sorted(
            (round(p["score"], 9),
             sorted((rel, int(tid)) for _alias, rel, tid in p["rows"]))
            for p in payloads if round(p["score"], 9) > cutoff)
        digest.update(json.dumps([qid, scores, rows], sort_keys=True,
                                 separators=(",", ":")).encode())
    return digest.hexdigest()


def handles_digest(handles: Iterable[QueryHandle]) -> str:
    """:func:`answers_digest` over in-process handles -- the oracle
    side of the HTTP differential gate."""
    return answers_digest({
        h.kq_id: [answer_payload(a, i)
                  for i, a in enumerate(h.answers or [])]
        for h in handles
    })


# -- wire helpers ------------------------------------------------------------

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 409: "Conflict", 405: "Method Not Allowed",
            500: "Internal Server Error"}


def _response(status: int, body: bytes, content_type: str,
              close: bool = False) -> bytes:
    head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            + ("Connection: close\r\n" if close else "") + "\r\n")
    return head.encode() + body


def _chunk(data: bytes) -> bytes:
    """``data`` as one chunk of a ``Transfer-Encoding: chunked`` body."""
    return b"%x\r\n%s\r\n" % (len(data), data)


#: The zero-length chunk that ends a chunked body (no trailers).
_LAST_CHUNK = b"0\r\n\r\n"


def _json_body(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


def _sse_event(name: str, payload: dict, event_id: int | None = None) -> bytes:
    """One SSE frame: ``event:``/``id:``/``data:`` lines and the blank
    separator.  The payload is serialized canonically (sorted keys,
    compact separators), so the bytes a client hashes are reproducible."""
    lines = [f"event: {name}"]
    if event_id is not None:
        lines.append(f"id: {event_id}")
    lines.append("data: " + json.dumps(payload, sort_keys=True,
                                       separators=(",", ":")))
    return ("\n".join(lines) + "\n\n").encode()


class _BadRequest(Exception):
    """Client error surfaced as a 400 with its message; the connection
    closes after it."""


class _Request(NamedTuple):
    method: str
    path: str
    body: bytes
    #: The client speaks HTTP/1.1, so a reply may be chunked.
    http11: bool
    #: The connection serves another request after this one.
    keep_alive: bool


class _Reply:
    """The writing side of one exchange: frames each reply for the
    request it answers -- ``Connection: close`` when the connection
    ends after it, and SSE events as chunks for an HTTP/1.1 client (an
    HTTP/1.0 stream is delimited by the close instead)."""

    def __init__(self, writer: asyncio.StreamWriter,
                 request: _Request) -> None:
        self.writer = writer
        self.closing = not request.keep_alive
        self.chunked = request.http11
        self._streaming = False

    async def send(self, status: int, body: bytes,
                   content_type: str) -> None:
        self.writer.write(_response(status, body, content_type,
                                    close=self.closing))
        await self.writer.drain()

    async def json(self, status: int, payload: dict) -> None:
        await self.send(status, _json_body(payload), "application/json")

    def events(self, frames: list[bytes], last: bool = False) -> None:
        """SSE frames, one chunk each, in a single write (the first
        call puts the reply's head in front); ``last`` ends the body."""
        out = []
        if not self._streaming:
            self._streaming = True
            out.append(b"HTTP/1.1 200 OK\r\n"
                       b"Content-Type: text/event-stream\r\n"
                       b"Cache-Control: no-cache\r\n"
                       + (b"Transfer-Encoding: chunked\r\n"
                          if self.chunked else b"")
                       + (b"Connection: close\r\n" if self.closing
                          else b"")
                       + b"\r\n")
        if self.chunked:
            out.extend(_chunk(frame) for frame in frames)
            if last:
                out.append(_LAST_CHUNK)
        else:
            out.extend(frames)
        self.writer.write(b"".join(out))


def _finite_number(value: object) -> bool:
    """Whether a decoded JSON value is usable as an instant or a
    duration.  ``true``/``false`` decode to ``bool`` (an ``int``
    subclass) and ``json.loads`` admits ``NaN``/``Infinity``; neither
    may reach the clock, the telemetry or a JSON reply."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:   # an integer too large for a float
        return False


# -- the server --------------------------------------------------------------

class QueryServiceHTTP:
    """Serve one front door (single-node or sharded) over HTTP/SSE on
    an asyncio stream server (stdlib only, no framework).

    ``tick``: real-second housekeeping period for wall-clock services
    (``None``, the default, never advances time behind the clients'
    backs -- required for deterministic virtual-clock serving).

    Publishes ``repro_http_connections_total`` and
    ``repro_http_requests_total`` into the front door's registry, so
    ``/metrics`` shows how many requests each connection carried."""

    def __init__(self, service: "ShardedQService",
                 host: str = "127.0.0.1", port: int = 0,
                 tick: float | None = None) -> None:
        self.service = service
        self.host = host
        self.port: int | None = None
        self._requested_port = port
        self.tick = tick
        self._handles: dict[str, QueryHandle] = {}
        self._ids = itertools.count(1)
        self._server: asyncio.AbstractServer | None = None
        self._shutdown: asyncio.Event | None = None
        self._ticker: asyncio.Task | None = None
        #: The task serving each open connection, so shutdown can end
        #: the ones a keep-alive client holds open between requests.
        self._conns: set[asyncio.Task] = set()
        self.connections = 0
        self.requests = 0
        service.registry.add_collector(self._publish_metrics)

    def _publish_metrics(self) -> None:
        r = self.service.registry
        r.counter("repro_http_connections_total",
                  "TCP connections the HTTP front end accepted"
                  ).set(self.connections)
        r.counter("repro_http_requests_total",
                  "HTTP requests the front end read, over all "
                  "connections").set(self.requests)

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` holds the bound
        port (useful with the ephemeral-port default)."""
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._serve_conn, self.host, self._requested_port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.tick is not None:
            self._ticker = asyncio.create_task(self._housekeeping())

    def request_shutdown(self) -> None:
        """Ask the server to stop (thread-safe only via
        ``loop.call_soon_threadsafe``)."""
        if self._shutdown is not None:
            self._shutdown.set()

    async def wait_closed(self) -> None:
        """Block until a shutdown is requested, then close."""
        assert self._shutdown is not None, "start() first"
        await self._shutdown.wait()
        await self.aclose()

    async def aclose(self) -> None:
        if self._ticker is not None:
            self._ticker.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._ticker
            self._ticker = None
        if self._server is not None:
            self._server.close()
            # Stop accepting, then end every open connection -- idle
            # between requests or mid-stream -- and wait for its task,
            # so none is left for the loop's teardown to cancel.
            conns = list(self._conns)
            for task in conns:
                task.cancel()
            await asyncio.gather(*conns, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None

    async def _housekeeping(self) -> None:
        """Wall-mode time driver: step the service to the clock's now
        every ``tick`` real seconds, so collection windows close and
        deadlines fire with no client attached."""
        while True:
            await asyncio.sleep(self.tick)
            self.service.step(self.service.clock.now)

    # -- connection handling ------------------------------------------------

    async def _serve_conn(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        """One persistent connection: wait for each request line and
        hand the exchange to :meth:`_handle_conn`, until the client
        closes, an exchange ends the connection, or the server shuts
        down.  The wait sits outside the exchange, so the time a client
        takes before its next request is not spent in the handler."""
        self.connections += 1
        task = asyncio.current_task()
        self._conns.add(task)
        try:
            while True:
                try:
                    request_line = await reader.readline()
                except (ConnectionResetError, ValueError):
                    # Reset between requests, or a request line over
                    # the stream's line limit: nothing to answer.
                    break
                if not request_line:
                    break
                if not await self._handle_conn(request_line, reader,
                                               writer):
                    break
        except asyncio.CancelledError:
            # Shutdown ends the connection (see aclose).  Finish the
            # task normally: the stream server's done-callback would
            # log a cancelled one as an unhandled error.
            pass
        finally:
            self._conns.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _handle_conn(self, request_line: bytes,
                           reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> bool:
        """One exchange: read the request ``request_line`` opens and
        answer it.  Returns whether the connection serves another."""
        self.requests += 1
        try:
            try:
                request = await self._read_request(request_line, reader)
                await self._route(request, _Reply(writer, request))
                return request.keep_alive
            except _BadRequest as exc:
                writer.write(_response(
                    400, _json_body({"error": str(exc)}),
                    "application/json", close=True))
                await writer.drain()
                return False
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError,
                asyncio.IncompleteReadError):
            # The client went away, possibly mid-body: nothing to answer.
            return False

    async def _read_request(self, request_line: bytes,
                            reader: asyncio.StreamReader) -> _Request:
        try:
            method, target, version = request_line.decode("latin-1").split()
        except ValueError:
            raise _BadRequest(
                f"malformed request line {request_line[:80]!r}") from None
        if version not in ("HTTP/1.0", "HTTP/1.1"):
            raise _BadRequest(f"unsupported protocol {version[:16]!r}")
        http11 = keep_alive = version == "HTTP/1.1"
        lengths: set[int] = set()
        total = len(request_line)
        while True:
            try:
                line = await reader.readline()
            except ValueError:      # one line over the stream's limit
                raise _BadRequest("request head too large") from None
            total += len(line)
            if total > _MAX_REQUEST_BYTES:
                raise _BadRequest("request head too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            name, value = name.strip().lower(), value.strip()
            if name == "content-length":
                # Digits only: int() would also take "-5", "+5" and "1_0".
                if not (value.isascii() and value.isdigit()):
                    raise _BadRequest(
                        f"Content-Length must be a decimal integer, "
                        f"got {value!r}")
                lengths.add(int(value))
            elif name == "transfer-encoding":
                # Only Content-Length frames a body here.  Reading a
                # coded body as empty would parse its bytes as the next
                # request on this connection (RFC 9112 6.3).
                raise _BadRequest("Transfer-Encoding is not supported; "
                                  "send Content-Length")
            elif name == "connection" and "close" in (
                    token.strip().lower() for token in value.split(",")):
                keep_alive = False
        if len(lengths) > 1:
            raise _BadRequest(
                f"conflicting Content-Length values {sorted(lengths)}")
        content_length = lengths.pop() if lengths else 0
        if content_length > _MAX_REQUEST_BYTES:
            raise _BadRequest(f"Content-Length {content_length} exceeds "
                              f"{_MAX_REQUEST_BYTES} bytes")
        body = await reader.readexactly(content_length) \
            if content_length else b""
        return _Request(method.upper(), target, body, http11, keep_alive)

    async def _route(self, request: _Request, reply: _Reply) -> None:
        method = request.method
        path = request.path.split("?", 1)[0]
        parts = [p for p in path.split("/") if p]
        if method == "GET" and parts == ["healthz"]:
            return await reply.json(200, {
                "status": "ok",
                "clock": type(self.service.clock).__name__,
                "now": self.service.clock.now,
                "queries": len(self._handles),
            })
        if method == "GET" and parts == ["metrics"]:
            text = self.service.metrics_registry().render_prometheus()
            return await reply.send(200, text.encode(),
                                    "text/plain; version=0.0.4")
        if method == "POST" and parts == ["admin", "shutdown"]:
            await reply.json(200, {"status": "shutting-down"})
            self.request_shutdown()
            return None
        if method == "POST" and parts == ["query"]:
            return await self._submit(request.body, reply)
        if len(parts) >= 2 and parts[0] == "query":
            handle = self._handles.get(parts[1])
            if handle is None:
                return await reply.json(
                    404, {"error": f"unknown query {parts[1]!r}"})
            if method == "GET" and len(parts) == 2:
                return await reply.json(200, self._snapshot(handle))
            if method == "GET" and parts[2:] == ["events"]:
                return await self._stream_events(handle, reply)
            if method == "POST" and parts[2:] == ["cancel"]:
                cancelled = self.service.cancel(handle)
                return await reply.json(200, {
                    "query_id": handle.kq_id,
                    "cancelled": cancelled,
                    "status": handle.status.value,
                })
            if method == "GET" and parts[2:] == ["trace"]:
                return await self._send_trace(handle, reply)
        await reply.json(404, {"error": f"no route {method} {path}"})

    # -- endpoints ----------------------------------------------------------

    def _snapshot(self, handle: QueryHandle) -> dict:
        answers = handle.answers_so_far()
        out = {
            "query_id": handle.kq_id,
            "status": handle.status.value,
            "via": handle.via,
            "shard": handle.shard,
            "arrival": handle.arrival,
            "deadline": handle.deadline,
            "completed_at": handle.completed_at,
            "reason": handle.reason,
            "answers_so_far": len(answers),
        }
        if handle.terminal:
            out["answers"] = [answer_payload(a, i)
                              for i, a in enumerate(answers)]
        return out

    async def _submit(self, body: bytes, reply: _Reply) -> None:
        try:
            payload = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest(f"request body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise _BadRequest("request body must be a JSON object")
        keywords = payload.get("keywords")
        if (not isinstance(keywords, list) or not keywords
                or not all(isinstance(kw, str) and kw for kw in keywords)):
            raise _BadRequest(
                '"keywords" must be a non-empty list of strings')
        k = payload.get("k", 10)
        if isinstance(k, bool) or not isinstance(k, int) or k <= 0:
            raise _BadRequest(f'"k" must be a positive integer, got {k!r}')
        qid = payload.get("id")
        if qid is None:
            qid = f"http-{next(self._ids)}"
        elif not isinstance(qid, str) or not qid:
            raise _BadRequest('"id" must be a non-empty string')
        if qid in self._handles:
            return await reply.json(
                409, {"error": f"query id {qid!r} already exists"})
        arrival = payload.get("arrival")
        if arrival is None:
            arrival = self.service.clock.now
        deadline = payload.get("deadline")
        timeout = payload.get("timeout")
        for name, value in (("arrival", arrival), ("deadline", deadline),
                            ("timeout", timeout)):
            if value is not None and not _finite_number(value):
                raise _BadRequest(f'"{name}" must be a finite number')
        if timeout is not None:
            if deadline is not None:
                raise _BadRequest(
                    'pass "deadline" (absolute) or "timeout" (relative), '
                    'not both')
            deadline = float(arrival) + float(timeout)
        kq = KeywordQuery(qid, tuple(keywords), k=k, arrival=float(arrival))
        handle = self.service.submit(kq, arrival=float(arrival),
                                     deadline=deadline)
        self._handles[qid] = handle
        out = self._snapshot(handle)
        out["events"] = f"/query/{qid}/events"
        await reply.json(202, out)

    async def _stream_events(self, handle: QueryHandle,
                             reply: _Reply) -> None:
        """Map :meth:`QueryHandle.results` onto SSE.

        Mirrors the in-process iterator's drive loop exactly -- drain
        the buffered emission, then pump -- so the answers (and their
        digests) a client receives over the wire are the ones the
        iterator yields in-process.  A disconnected client cancels the
        query, exactly like abandoning the iterator."""
        writer = reply.writer
        # Frames ready at once go out in one write: everything a cache
        # hit streams is ready at once.
        frames = [_sse_event("status", {
            "query_id": handle.kq_id,
            "status": handle.status.value,
            "via": handle.via,
        })]
        cursor = 0
        try:
            while True:
                snapshot = handle.answers_so_far()
                while cursor < len(snapshot):
                    frames.append(_sse_event(
                        "answer", answer_payload(snapshot[cursor], cursor),
                        event_id=cursor))
                    cursor += 1
                if handle.terminal:
                    break
                reply.events(frames)
                frames = []
                await writer.drain()
                progressed = self.service.pump(handle)
                if (not progressed and not handle.terminal
                        and len(handle.answers_so_far()) == cursor):
                    # Provably stuck right now (never a deferred query:
                    # an empty shard always admits).  In wall mode the
                    # passage of real time can free it -- wait one tick;
                    # on a virtual clock nothing moves without a caller,
                    # so end the stream like the blocked iterator does.
                    if self.tick is None:
                        break
                    await asyncio.sleep(self.tick)
                    continue
                # Yield between pumps so concurrent streams interleave.
                await asyncio.sleep(0)
            frames.append(_sse_event("end", {
                "query_id": handle.kq_id,
                "disposition": handle.status.value,
                "answers": cursor,
                "completed_at": handle.completed_at,
                "reason": handle.reason,
            }))
            reply.events(frames, last=True)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            # The client went away mid-stream: HTTP disconnection is
            # client abandonment -- release the query's claim on its
            # (possibly shared) execution.  The connection is done.
            if not handle.terminal:
                self.service.cancel(handle)
            raise

    async def _send_trace(self, handle: QueryHandle,
                          reply: _Reply) -> None:
        # ``trace_of`` is the whole tree: a process worker's spans live
        # in the child and only it merges them under the front root.
        trace = self.service.trace_of(handle)
        if trace is None:
            return await reply.json(
                404, {"error": "tracing is off (serve with a tracer)"})
        lines = trace.jsonl_lines()
        await reply.send(200, ("\n".join(lines) + "\n").encode(),
                         "application/x-ndjson")


# -- blocking wrappers -------------------------------------------------------

class HttpServerThread:
    """Run a :class:`QueryServiceHTTP` on a private event loop in a
    daemon thread -- the bridge for blocking callers (tests, the
    closed-loop benchmark).  Use as a context manager::

        with HttpServerThread(service) as srv:
            client = HttpQueryClient("127.0.0.1", srv.port)
            ...
    """

    def __init__(self, service: "ShardedQService",
                 host: str = "127.0.0.1", port: int = 0,
                 tick: float | None = None) -> None:
        self.server = QueryServiceHTTP(service, host=host, port=port,
                                       tick=tick)
        self._thread = threading.Thread(
            target=self._run, name="repro-http", daemon=True)
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:   # surfaced by __enter__/__exit__
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self._ready.set()
        await self.server.wait_closed()

    @property
    def port(self) -> int:
        assert self.server.port is not None, "server not started"
        return self.server.port

    def __enter__(self) -> "HttpServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("HTTP server failed to start within 10s")
        if self._error is not None:
            raise RuntimeError("HTTP server failed to start") \
                from self._error
        return self

    def __exit__(self, *_exc) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(timeout=10.0)


class HttpQueryClient:
    """A blocking stdlib client for :class:`QueryServiceHTTP`: JSON
    requests plus an SSE parser, over one persistent connection.

    The connection opens on the first call and serves every later one.
    It is dropped -- and the next call reconnects -- after any error,
    after a reply the server closes the connection behind
    (``http.client`` drops those itself), and when an :meth:`events`
    iterator is abandoned before its stream ended.  Not thread-safe:
    use one client per thread.  :meth:`close` (or a ``with`` block)
    releases the connection."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "HttpQueryClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _send(self, method: str, path: str, body: bytes | None = None,
              headers: dict[str, str] | None = None
              ) -> http.client.HTTPResponse:
        """Send one request on the persistent connection and read the
        reply's head; the caller reads (or abandons) its body."""
        if self._conn is None:
            # Imported here: the server side never needs http.client.
            import http.client
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        try:
            self._conn.request(method, path, body=body,
                               headers=headers or {})
            return self._conn.getresponse()
        except BaseException:
            self.close()
            raise

    def _fetch(self, method: str, path: str,
               payload: dict | None = None) -> tuple[int, bytes]:
        """One whole exchange: the reply's status and body."""
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} \
            if body is not None else None
        resp = self._send(method, path, body, headers)
        try:
            return resp.status, resp.read()
        except BaseException:
            self.close()
            raise

    def _request(self, method: str, path: str,
                 payload: dict | None = None) -> tuple[int, dict]:
        status, raw = self._fetch(method, path, payload)
        try:
            decoded = json.loads(raw.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError):
            decoded = {"raw": raw.decode("latin-1")}
        return status, decoded

    def submit(self, keywords: Iterable[str], k: int = 10, *,
               query_id: str | None = None, arrival: float | None = None,
               deadline: float | None = None,
               timeout: float | None = None) -> dict:
        payload: dict = {"keywords": list(keywords), "k": k}
        if query_id is not None:
            payload["id"] = query_id
        if arrival is not None:
            payload["arrival"] = arrival
        if deadline is not None:
            payload["deadline"] = deadline
        if timeout is not None:
            payload["timeout"] = timeout
        status, body = self._request("POST", "/query", payload)
        if status != 202:
            raise RuntimeError(f"submit failed ({status}): {body}")
        return body

    def status(self, query_id: str) -> dict:
        return self._request("GET", f"/query/{query_id}")[1]

    def cancel(self, query_id: str) -> dict:
        return self._request("POST", f"/query/{query_id}/cancel")[1]

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")[1]

    def metrics(self) -> str:
        return self._fetch("GET", "/metrics")[1].decode()

    def trace(self, query_id: str) -> list[str]:
        status, raw = self._fetch("GET", f"/query/{query_id}/trace")
        text = raw.decode()
        if status != 200:
            raise RuntimeError(f"trace failed ({status}): {text}")
        return [line for line in text.splitlines() if line]

    def shutdown(self) -> dict:
        return self._request("POST", "/admin/shutdown")[1]

    def events(self, query_id: str) -> Iterator[tuple[str, dict]]:
        """Iterate ``(event_name, payload)`` off the query's SSE
        stream until the reply ends."""
        resp = self._send("GET", f"/query/{query_id}/events")
        try:
            if resp.status != 200:
                raise RuntimeError(
                    f"events failed ({resp.status}): {resp.read()!r}")
            event: str | None = None
            data_lines: list[str] = []
            partial = b""
            # read1 hands over what has arrived (at most one chunk):
            # whole events at a time, not one line per call.
            while block := resp.read1(1 << 16):
                *lines, partial = (partial + block).split(b"\n")
                for raw in lines:
                    line = raw.decode().rstrip("\r")
                    if not line:
                        if event is not None:
                            yield event, json.loads("\n".join(data_lines))
                        event, data_lines = None, []
                    elif line.startswith("event:"):
                        event = line[len("event:"):].strip()
                    elif line.startswith("data:"):
                        data_lines.append(line[len("data:"):].strip())
                    # ``id:`` and comment lines need no handling here.
        finally:
            # A reply read to its end is closed; anything else (an
            # error, an iterator dropped mid-stream) leaves unread
            # bytes on the connection, so it cannot carry the next call.
            if not resp.isclosed():
                self.close()

    def stream(self, query_id: str) -> tuple[list[dict], dict | None]:
        """Consume the SSE stream to its ``end`` event; returns the
        answer payloads (rank order) and the ``end`` payload (``None``
        if the stream closed without one)."""
        answers: list[dict] = []
        end: dict | None = None
        for event, payload in self.events(query_id):
            if event == "answer":
                answers.append(payload)
            elif event == "end":
                end = payload
        return answers, end
