"""``repro serve`` with spans around the calls into each layer.

Usage: ``python traced_server.py SPAN_FILE serve --http ...``

Wraps the layers' methods at class level, then hands the remaining
arguments to ``repro.cli.main`` unchanged, so the traced pass serves
with exactly the program the timed passes measure.  A span is ``[name,
start, end, parent, query id, bytes written]``: instants are
``time.perf_counter`` readings (CLOCK_MONOTONIC, so they line up with
the client's own), ``parent`` indexes the span that was open in the
same task when this one began, and the bytes are what the span itself
handed to its socket (only ``http.*`` spans write).  Spans stay in
memory and are written to ``SPAN_FILE`` when the server shuts down.

The wrapping runs only under ``__main__``: a spawned worker process
re-imports this file as ``__mp_main__`` and so serves unwrapped code --
on a sharded fleet the worker interior is one ``workers.*`` span on the
front door.  Spans inside the program are a later issue.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import sys
import time

SPANS: list[list] = []
_open_span: contextvars.ContextVar[int] = contextvars.ContextVar(
    "e2e_open_span", default=-1)


def _begin(name: str, args: tuple) -> tuple[int, contextvars.Token]:
    # The query id, when the first argument is a query or a handle;
    # nested spans inherit their parent's at analysis time.
    qid = getattr(args[1], "kq_id", None) if len(args) > 1 else None
    index = len(SPANS)
    SPANS.append([name, 0.0, 0.0, _open_span.get(), qid, 0])
    token = _open_span.set(index)
    SPANS[index][1] = time.perf_counter()
    return index, token


def _end(index: int, token: contextvars.Token) -> None:
    SPANS[index][2] = time.perf_counter()
    _open_span.reset(token)


def wrap(cls: type, method: str, name: str) -> None:
    """Replace ``cls.method`` by a version that records one span per
    call (per await-to-completion for a coroutine function)."""
    fn = getattr(cls, method)
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            index, token = _begin(name, args)
            try:
                return await fn(*args, **kwargs)
            finally:
                _end(index, token)
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, token = _begin(name, args)
            try:
                return fn(*args, **kwargs)
            finally:
                _end(index, token)
    setattr(cls, method, traced)


def install() -> None:
    import asyncio

    from repro.atc.engine import QSystemEngine
    from repro.keyword.candidates import CandidateNetworkGenerator
    from repro.optimizer.repository import PlanRepository
    from repro.service.admission import AdmissionController
    from repro.service.cache import ResultCache
    from repro.service.http import QueryServiceHTTP
    from repro.service.server import QService
    from repro.service.sharding import ShardedQService
    from repro.service.workers import ProcessWorker

    # The HTTP layer's boundary: one connection, accept to close, and
    # inside it the two handlers a query uses (they name the query).
    wrap(QueryServiceHTTP, "_handle_conn", "http.conn")
    wrap(QueryServiceHTTP, "_submit", "http.submit")
    wrap(QueryServiceHTTP, "_stream_events", "http.stream")
    for service in (QService, ShardedQService):
        for verb in ("submit", "pump", "answers_so_far", "step"):
            wrap(service, verb, f"server.{verb}")
    wrap(ResultCache, "get", "cache.get")
    wrap(ResultCache, "put", "cache.put")
    wrap(AdmissionController, "decide", "admission.decide")
    wrap(CandidateNetworkGenerator, "generate", "keyword.generate")
    wrap(PlanRepository, "optimize", "repository.optimize")
    wrap(QSystemEngine, "step", "engine.step")
    wrap(QSystemEngine, "drive_query", "engine.drive_query")
    for verb in ("submit", "cancel", "answers_so_far", "pump",
                 "inflight_handle", "start_step", "finish_step",
                 "start_drain", "registry_view"):
        wrap(ProcessWorker, verb, f"workers.{verb}")

    write = asyncio.StreamWriter.write

    @functools.wraps(write)
    def counted_write(self, data):
        index = _open_span.get()
        if index >= 0:
            SPANS[index][5] += len(data)
        return write(self, data)
    asyncio.StreamWriter.write = counted_write


def dump(path: str) -> None:
    with open(path, "w") as out:
        json.dump(SPANS, out)


if __name__ == "__main__":
    span_file, argv = sys.argv[1], sys.argv[2:]
    install()
    from repro.cli import main
    try:
        code = main(argv)
    finally:
        dump(span_file)
    sys.exit(code)
