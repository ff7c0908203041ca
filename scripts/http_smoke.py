#!/usr/bin/env python
"""End-to-end smoke of ``repro serve --http`` as a real subprocess.

Usage: ``python scripts/http_smoke.py [--port N] [--trace-dir DIR]
[-- SERVE_ARGS...]``

Launches the CLI HTTP server exactly as an operator would (any
arguments after ``--`` are passed through to ``repro serve``, e.g.
``-- --shards 2 --workers process``), then drives it over the wire
with the stdlib client:

1. wait for ``/healthz`` to answer (wall clock reported);
2. submit several queries and stream each SSE feed, validating the
   event shape (``status``, rank-ordered ``answer`` events, ``end``
   with a ``done`` disposition and the right answer count); with
   ``--trace-dir``, also fetch each one's ``GET /query/<id>/trace``
   and require a valid span tree whose root's disposition is ``done``;
   over a process fleet, the workers' round-trip counter read before
   and after the streams must show at most
   ``MAX_ROUND_TRIPS_PER_STREAM`` round trips per streamed query;
3. submit one more query and cancel it, asserting the ``cancelled``
   disposition propagates to its stream and snapshot;
4. check ``/metrics`` renders Prometheus text, that its connection
   counters show the client's calls riding persistent connections
   (more than one request per connection), and that the live scrape,
   summed over any ``shard`` labels, counts every streamed query
   completed and at least one optimizer invocation;
5. ``POST /admin/shutdown`` and require a clean exit -- then, when
   ``--trace-dir`` is given, require the server wrote a validatable
   trace artifact (CI uploads it).

Exits nonzero on the first violation.  CI runs this as the
``http-smoke`` job, once single-node and once over a process fleet.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import queue
import re
import subprocess
import sys
import threading
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from repro.obs.export import validate_trace_lines  # noqa: E402
from repro.service import HttpQueryClient  # noqa: E402

QUERIES = [
    ["protein", "plasma membrane"],
    ["membrane", "gene"],
    ["protein", "gene"],
]
K = 6
#: Worker round trips one streamed cold query may cost over a process
#: fleet: a submit, a pump to the first answer, a pump to the end, and
#: one step of the owning shard on a housekeeping tick.
MAX_ROUND_TRIPS_PER_STREAM = 4


def fail(msg: str) -> None:
    print(f"http_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def wait_healthy(client: HttpQueryClient, proc: subprocess.Popen,
                 timeout: float = 30.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            fail(f"server exited early with code {proc.returncode}")
        try:
            health = client.healthz()
            if health.get("status") == "ok":
                return health
        except OSError:
            pass
        time.sleep(0.2)
    fail(f"server not healthy within {timeout}s")
    raise AssertionError  # unreachable


def check_stream(client: HttpQueryClient, qid: str,
                 keywords: list[str]) -> None:
    out = client.submit(keywords, k=K, query_id=qid)
    if out["query_id"] != qid:
        fail(f"{qid}: submit echoed {out['query_id']!r}")
    events = list(client.events(qid))
    names = [name for name, _payload in events]
    answers = [payload for name, payload in events if name == "answer"]
    if not names or names[0] != "status":
        fail(f"{qid}: stream must open with a status event, got {names[:3]}")
    if names[-1] != "end":
        fail(f"{qid}: stream must close with an end event, got {names[-3:]}")
    if names != ["status"] + ["answer"] * len(answers) + ["end"]:
        fail(f"{qid}: unexpected event sequence {names}")
    if [a["rank"] for a in answers] != list(range(len(answers))):
        fail(f"{qid}: answer ranks not sequential")
    end = events[-1][1]
    if end["disposition"] != "done":
        fail(f"{qid}: disposition {end['disposition']!r}, wanted 'done'")
    if end["answers"] != len(answers):
        fail(f"{qid}: end counted {end['answers']} answers, "
             f"streamed {len(answers)}")
    snapshot = client.status(qid)
    if snapshot["status"] != "done":
        fail(f"{qid}: terminal snapshot says {snapshot['status']!r}")
    print(f"http_smoke: {qid}: {len(answers)} answers, done")


def check_trace(client: HttpQueryClient, qid: str) -> None:
    lines = client.trace(qid)
    errors = validate_trace_lines(lines)
    if errors:
        fail(f"{qid}: trace endpoint: {errors[0]}")
    root = json.loads(lines[0])
    if root["attrs"].get("disposition") != "done":
        fail(f"{qid}: trace root disposition "
             f"{root['attrs'].get('disposition')!r}, wanted 'done'")
    print(f"http_smoke: {qid}: trace OK ({len(lines)} spans)")


def check_cancel(client: HttpQueryClient, qid: str) -> None:
    # A keyword combination no earlier query used: a repeat would be
    # served from the answer cache at submit and leave nothing to
    # cancel.  A fresh query's batch window has not closed yet (nothing
    # pumps it), so the cancel deterministically beats completion.
    client.submit(["plasma membrane", "gene"], k=K, query_id=qid)
    out = client.cancel(qid)
    if not out["cancelled"] or out["status"] != "cancelled":
        fail(f"{qid}: cancel reported {out}")
    _answers, end = client.stream(qid)
    if end is None or end["disposition"] != "cancelled":
        fail(f"{qid}: stream after cancel ended with {end}")
    print(f"http_smoke: {qid}: cancelled cleanly")


def worker_round_trips(client: HttpQueryClient) -> tuple[float, int]:
    """The fleet's ``repro_worker_round_trips_total`` summed over its
    shards, and the number of shards publishing it (0 when the server
    runs no process workers).  The scrape itself asks each worker for
    one snapshot, counted in the total it reads."""
    values = re.findall(r"^repro_worker_round_trips_total\{[^}]*\} (\S+)$",
                        client.metrics(), re.MULTILINE)
    return sum(float(v) for v in values), len(values)


def check_round_trips(before: float, after: float, shards: int,
                      streamed: int) -> None:
    """Fail when streaming cost the workers more round trips per query
    than the bound (the later scrape's own snapshots left out)."""
    per_query = (after - before - shards) / streamed
    if per_query > MAX_ROUND_TRIPS_PER_STREAM:
        fail(f"{per_query:g} worker round trips per streamed query, "
             f"more than {MAX_ROUND_TRIPS_PER_STREAM}")
    print(f"http_smoke: {per_query:g} worker round trips per streamed "
          f"query over {shards} shards")


def check_connection_reuse(metrics: str) -> None:
    """The server's own counters: every call above went over one
    keep-alive client, so connections must carry several requests."""
    totals = {}
    for name in ("repro_http_connections_total", "repro_http_requests_total"):
        match = re.search(rf"^{name} (\S+)$", metrics, re.MULTILINE)
        if match is None:
            fail(f"/metrics has no {name}")
        totals[name] = float(match.group(1))
    conns = totals["repro_http_connections_total"]
    requests = totals["repro_http_requests_total"]
    if not requests > conns:
        fail(f"{requests:g} requests over {conns:g} connections: "
             f"connections are not reused")
    print(f"http_smoke: {requests:g} requests over {conns:g} connections")


def check_serving_totals(metrics: str, streamed: int) -> None:
    """The live scrape carries the serving and optimizer totals,
    summed over any ``shard`` labels, with no report asked for."""
    def total(name: str) -> float:
        return sum(float(value) for value in re.findall(
            rf"^{name}(?:\{{[^}}]*\}})? (\S+)$", metrics, re.MULTILINE))

    completed = total("repro_service_completed_total")
    invocations = total("repro_optimizer_invocations_total")
    if completed < streamed:
        fail(f"/metrics counts {completed:g} completed queries, "
             f"{streamed} were streamed")
    if invocations < 1:
        fail("/metrics counts no optimizer invocation")
    print(f"http_smoke: {completed:g} completed, "
          f"{invocations:g} optimizer invocations")


def launch(cmd: list[str]) -> tuple[subprocess.Popen, "queue.Queue"]:
    """Start the server subprocess and watch its stdout for the
    ``listening on http://host:port`` line -- with ``--port 0`` the OS
    assigns the port and this line is the only place it is reported.
    The reader thread keeps draining stdout afterwards (echoing it) so
    the server never blocks on a full pipe."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            bufsize=1)
    ports: "queue.Queue[int | None]" = queue.Queue()

    def pump() -> None:
        assert proc.stdout is not None
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                ports.put(int(match.group(1)))
        ports.put(None)   # EOF: wake the waiter if it never listened

    threading.Thread(target=pump, daemon=True).start()
    return proc, ports


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port to serve on; 0 (the default) "
                             "binds an OS-assigned ephemeral port")
    parser.add_argument("--trace-dir", default=None)
    argv = sys.argv[1:]
    serve_args: list[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, serve_args = argv[:cut], argv[cut + 1:]
    args = parser.parse_args(argv)

    cmd = [sys.executable, "-m", "repro", "serve", "--http",
           "--port", str(args.port)]
    if args.trace_dir:
        cmd += ["--trace-dir", args.trace_dir]
    cmd += serve_args
    proc, ports = launch(cmd)
    try:
        try:
            port = ports.get(timeout=60.0)
        except queue.Empty:
            port = None
        if port is None:
            fail("server never reported a listening port")
        client = HttpQueryClient("127.0.0.1", port, timeout=30.0)
        health = wait_healthy(client, proc)
        print(f"http_smoke: healthy on port {port} "
              f"({health['clock']}, now={health['now']:.3f})")
        trips_before, shards = worker_round_trips(client)
        for i, keywords in enumerate(QUERIES, start=1):
            check_stream(client, f"smoke-{i}", keywords)
        if shards:
            check_round_trips(trips_before, worker_round_trips(client)[0],
                              shards, len(QUERIES))
        if args.trace_dir:
            for i in range(1, len(QUERIES) + 1):
                check_trace(client, f"smoke-{i}")
        check_cancel(client, "smoke-cancel")
        metrics = client.metrics()
        if "# TYPE" not in metrics:
            fail("/metrics did not render Prometheus text")
        print(f"http_smoke: metrics: {len(metrics.splitlines())} lines")
        check_connection_reuse(metrics)
        check_serving_totals(metrics, len(QUERIES))
        client.shutdown()
        if proc.wait(timeout=30.0) != 0:
            fail(f"server exited with code {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    if args.trace_dir:
        traces = sorted(pathlib.Path(args.trace_dir).glob("*.jsonl"))
        if not traces:
            fail(f"no trace artifact written under {args.trace_dir}")
        for path in traces:
            lines = path.read_text().splitlines()
            errors = validate_trace_lines(lines)
            if errors:
                fail(f"{path}: {errors[0]}")
            print(f"http_smoke: trace artifact {path}: "
                  f"OK ({len(lines)} spans)")
    print("http_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
