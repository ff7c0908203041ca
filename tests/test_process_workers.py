"""Differential oracle for the process-per-shard worker transport.

The in-process fleet (``workers="inproc"``) *is* the reference
implementation: it runs the exact pre-existing sequential code paths.
The process fleet (``workers="process"``) speaks the wire protocol to
one OS process per shard.  These tests drive both through identical
workloads -- shard counts x routing policies, with cancellations and
per-query deadlines fired mid-run at identical virtual instants -- and
require the *answers* to be byte-identical: same per-query terminal
status, same ``via``, same answers digest.

(Latency tails are deliberately NOT compared: the inproc fleet drains
its workers sequentially through the shared clock, so queries still in
flight at drain complete later on shard i+1's serialized timeline than
on a truly parallel one.  Answers are unaffected -- a completed
query's top-k is a deterministic function of data and query.)

Also here: worker-crash semantics (satellite: robustness).  Killing a
shard's process mid-flight must fail its in-flight queries with the
``failed`` disposition, reroute subsequent arrivals to survivors, and
respawn the worker, serve from it again, and count ``worker_restarts``
-- or, when the respawn itself fails, leave the worker dead.
"""

import os
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro

from repro.common.config import DelayModel, ExecutionConfig, SharingMode
from repro.data.figure1 import figure1_federation
from repro.data.inverted import InvertedIndex
from repro.service import (
    LoadConfig,
    ServiceConfig,
    ShardedQService,
    WorkerSpec,
    generate_abandonments,
    generate_load,
    handles_digest,
    normalize_key,
)

CARDS = {
    "UP": 60, "TP": 50, "E": 40, "E2M": 70, "I2G": 70,
    "T": 60, "TS": 65, "G2G": 75, "GI": 60, "RL": 65,
}
K = 6
SEED = 7
DOMAIN = 0.7

#: Queries (by position in the load) given explicit deadlines, as
#: ``arrival + offset``.  The offsets land every expiry inside the
#: stepped phase (later arrivals step every worker past them), where
#: both transports observe identical instants.
DEADLINES = {2: 1.5, 5: 1.2}


@pytest.fixture(scope="module")
def fed():
    return figure1_federation(seed=SEED, cardinalities=dict(CARDS),
                              domain_factor=DOMAIN)


@pytest.fixture(scope="module")
def index(fed):
    return InvertedIndex(fed)


@pytest.fixture(scope="module")
def load_config():
    return LoadConfig(n_queries=14, rate_qps=4.0, k=K, n_templates=6,
                      vocabulary_size=12, seed=5, abandon_prob=0.25,
                      patience_mean=1.0)


@pytest.fixture(scope="module")
def load(fed, index, load_config):
    return generate_load(fed, load_config, index=index)


@pytest.fixture(scope="module")
def cancels(load, load_config):
    return generate_abandonments(load, load_config)


def exec_config():
    # optimizer_time_scale=0: real optimizer wall time otherwise feeds
    # the virtual clock, making completion instants -- and therefore
    # cancel/deadline races -- machine-load dependent.  The transports
    # must be compared on a bit-for-bit deterministic timeline.
    return ExecutionConfig(mode=SharingMode.ATC_FULL, k=K, seed=1,
                           batch_window=2.0, optimizer_time_scale=0.0,
                           delays=DelayModel(deterministic=True))


def make_fleet(fed, workers, n_shards, routing, service=None,
               **kwargs):
    config = exec_config()
    spec = None
    if workers == "process":
        spec = WorkerSpec.figure1(config, seed=SEED,
                                  cardinalities=dict(CARDS),
                                  domain_factor=DOMAIN)
    return ShardedQService(fed, config, n_shards=n_shards,
                           routing=routing, service=service,
                           workers=workers, worker_spec=spec, **kwargs)


def drive(service, load, cancels):
    """One open-loop run: arrivals in order, cancellations and
    deadline expiries interleaved at their virtual instants.  Returns
    the handles, after drain."""
    due = sorted(cancels.items(), key=lambda kv: kv[1])
    handles = {}

    def fire(now):
        while due and (now is None or due[0][1] <= now):
            kq_id, at = due.pop(0)
            handle = handles.get(kq_id)
            if handle is None or handle.terminal:
                continue
            service.step(at)
            handle.cancel()

    for i, kq in enumerate(sorted(load, key=lambda q: q.arrival)):
        fire(kq.arrival)
        offset = DEADLINES.get(i)
        deadline = None if offset is None else kq.arrival + offset
        handles[kq.kq_id] = service.submit(kq, deadline=deadline)
    fire(None)
    service.drain()
    return [handles[kq.kq_id] for kq in load]


def observable(handles):
    """Everything that must be transport-independent."""
    return ([(h.kq_id, h.status.value, h.via) for h in handles],
            handles_digest(handles))


# Shard count x routing policy sweep; routing is moot on one shard.
CASES = [(1, "roundrobin")] + [
    (n, routing)
    for n in (2, 4)
    for routing in ("roundrobin", "hash", "cluster")
]


@pytest.mark.parametrize("n_shards,routing", CASES)
def test_process_matches_inproc(fed, load, cancels, n_shards, routing):
    results = {}
    for workers in ("inproc", "process"):
        fleet = make_fleet(fed, workers, n_shards, routing)
        try:
            results[workers] = observable(drive(fleet, load, cancels))
            if workers == "process":
                # A drained fleet owes no query anything: no proxy stays.
                assert [w._handles for w in fleet.workers] \
                    == [{}] * n_shards
        finally:
            fleet.close()
    assert results["process"] == results["inproc"]


def test_deferral_answers_match(fed, load):
    """Under a tight in-flight budget queries defer; park-release
    instants ride the drain schedule, which the inproc fleet
    serializes -- so only the *answers* are comparable, and they must
    still be identical."""
    service = ServiceConfig(max_in_flight=2, admission_policy="defer")
    digests = {}
    for workers in ("inproc", "process"):
        fleet = make_fleet(fed, workers, 2, "roundrobin", service=service)
        try:
            handles = [fleet.submit(kq) for kq in load]
            fleet.drain()
            assert all(h.status.value == "done" for h in handles)
            digests[workers] = handles_digest(handles)
        finally:
            fleet.close()
    assert digests["process"] == digests["inproc"]


def record_frames(fleet):
    """Every frame the front door sends, as ``(shard, kind)``."""
    sent = []
    for worker in fleet.workers:
        def record(msg, worker=worker, send=worker._send_raw):
            sent.append((worker.shard, msg.kind))
            send(msg)
        worker._send_raw = record
    return sent


def test_streaming_over_the_wire_sends_only_pumps(fed, load):
    """``results()`` through a process fleet streams the in-process
    fleet's answer sequences, and once a cold query is submitted its
    owning worker sees exactly two ``PumpQuery`` frames, one that ends
    at the first answer and one that ends with the query: the answers
    ride each reply's events instead of a request of their own."""
    keys, queries = set(), []
    for kq in load:
        key = normalize_key(kq.keywords, kq.k)
        if key not in keys and len(queries) < 4:
            keys.add(key)
            queries.append(kq)
    streams = {}
    for workers in ("inproc", "process"):
        fleet = make_fleet(fed, workers, 2, "roundrobin")
        sent = record_frames(fleet) if workers == "process" else []
        try:
            streams[workers] = []
            for kq in queries:
                handle = fleet.submit(kq)
                sent.clear()
                streams[workers].append(list(handle.results()))
                assert handle.done
                if workers == "process":
                    assert sent == [(handle.shard, "PumpQuery")] * 2
        finally:
            fleet.close()
    assert all(streams["inproc"])
    assert streams["process"] == streams["inproc"]


#: Round trips one cold top-10 query streamed through an idle 2-shard
#: process fleet costs, summed over both workers: a submit, a pump to
#: the first answer and a pump to the end (idle shards are not
#: stepped).  A pump per answer and a step of every shard read 9.
COLD_STREAM_ROUND_TRIPS = 3


def test_a_cold_streamed_query_costs_a_counted_number_of_round_trips(
        fed, load):
    """The seam counts itself: every request that got its reply is one
    round trip, every frame's bytes count in its direction, and the
    front door publishes both per shard."""
    fleet = make_fleet(fed, "process", 2, "roundrobin")
    try:
        assert [w.round_trips for w in fleet.workers] == [0, 0]
        handle = fleet.submit(replace(load[0], k=10))
        assert len(list(handle.results())) == 10 and handle.done
        trips = [w.round_trips for w in fleet.workers]
        assert sum(trips) == COLD_STREAM_ROUND_TRIPS
        registry = fleet.metrics_registry()
        # The scrape asked each worker for one snapshot.
        published = registry.get("repro_worker_round_trips_total").samples()
        assert published == {(("shard", str(i)),): float(n + 1)
                             for i, n in enumerate(trips)}
        wire = registry.get("repro_worker_wire_bytes_total").samples()
        for i, worker in enumerate(fleet.workers):
            sent = wire[(("direction", "sent"), ("shard", str(i)))]
            received = wire[(("direction", "received"), ("shard", str(i)))]
            assert sent == worker.bytes_sent > 0
            assert received == worker.bytes_received > 0
    finally:
        fleet.close()


# -- the worker's pump -------------------------------------------------------


def worker_server(service=None):
    from repro.service.workers import _WorkerServer

    return _WorkerServer(WorkerSpec.figure1(
        exec_config(), seed=SEED, cardinalities=dict(CARDS),
        domain_factor=DOMAIN, service=service))


def submit_to(server, kq):
    from repro.service.protocol import SubmitQuery

    return server.dispatch(SubmitQuery(
        now=kq.arrival, kq_id=kq.kq_id, keywords=tuple(kq.keywords),
        k=kq.k, arrival=kq.arrival, user=kq.user, deadline=None)).handle


def pump_state(server, kq_id):
    """One ``PumpQuery``'s reply value and the query's reported
    state."""
    from repro.service.protocol import PumpQuery

    reply = server.dispatch(PumpQuery(now=server.service.clock.now,
                                      kq_id=kq_id))
    states = [e for e in reply.update.events if e.kq_id == kq_id]
    return reply.value, (states[0] if states else None)


def test_first_pump_ends_at_the_first_answer_and_the_second_ends_it(load):
    """The worker pumps after submit until the ``Shard.pump`` call that
    produced the first answer (so time to first answer is unchanged),
    then to the end; the first reply carries exactly what those calls
    emitted, the second the query's final answers."""
    from repro.service.protocol import encode_answers

    kq = replace(load[0], k=10)
    server = worker_server()
    submit_to(server, kq)
    value, first = pump_state(server, kq.kq_id)
    assert value and first.status == "in-flight" and first.emitted

    oracle = worker_server()
    submit_to(oracle, kq)
    handle = oracle._watched[kq.kq_id]
    while not oracle.service.answers_so_far(handle):
        assert oracle.service.pump(handle)
    assert first.emitted == encode_answers(
        oracle.service.answers_so_far(handle))
    assert server.service.clock.now == oracle.service.clock.now

    value, last = pump_state(server, kq.kq_id)
    assert value and last.status == "done" and len(last.answers) == 10
    assert last.answers[:len(first.emitted)] == first.emitted
    # The handle is gone from the worker: a third pump changes nothing.
    assert pump_state(server, kq.kq_id) == (False, None)


def test_a_deadline_between_answers_expires_as_in_process(fed, load):
    """A virtual deadline that falls while the second pump runs the
    query to its end expires it at the in-process fleet's instant,
    with the in-process fleet's answers."""
    kq = replace(load[0], k=10)
    fleet = make_fleet(fed, "inproc", 2, "roundrobin")
    handle = fleet.submit(kq)
    stream = handle.results()
    next(stream)
    first_answer_at = fleet.clock.now
    list(stream)
    deadline = (first_answer_at + handle.completed_at) / 2
    assert first_answer_at < deadline < handle.completed_at

    outcomes = {}
    for workers in ("inproc", "process"):
        fleet = make_fleet(fed, workers, 2, "roundrobin")
        try:
            handle = fleet.submit(kq, deadline=deadline)
            streamed = list(handle.results())
            outcomes[workers] = (handle.status.value, handle.completed_at,
                                 streamed, handle.answers)
        finally:
            fleet.close()
    status, _completed_at, streamed, answers = outcomes["inproc"]
    assert status == "expired" and 0 < len(answers) < 10
    assert streamed == answers
    assert outcomes["process"] == outcomes["inproc"]


def test_a_deferred_pump_advances_one_batch_window(load):
    """A parked query's pump is one ``Shard.pump`` call: one batch
    window of virtual time, even when the retry in that window admits
    it and more pumping could run it on."""
    server = worker_server(ServiceConfig(max_in_flight=1,
                                         admission_policy="defer"))
    first, second = load[0], next(
        kq for kq in load
        if normalize_key(kq.keywords, kq.k)
        != normalize_key(load[0].keywords, load[0].k))
    submit_to(server, first)
    assert submit_to(server, replace(
        second, arrival=first.arrival)).status == "deferred"
    handle = server._watched[second.kq_id]
    window = max(exec_config().batch_window, 1.0)
    while handle.status.value == "deferred":
        before = server.service.clock.now
        assert pump_state(server, second.kq_id)[0]
        assert server.service.clock.now == before + window
    assert handle.status.value == "in-flight"


# -- idle shards --------------------------------------------------------------


class ToShardZero:
    """A routing policy that sends every query to shard 0."""

    name = "zero"
    needs_expansion = False

    def route(self, kq, uq, n_shards):
        return 0


def test_a_step_with_nothing_in_flight_sends_no_frame(fed, load):
    fleet = make_fleet(fed, "process", 2, "roundrobin")
    try:
        sent = record_frames(fleet)
        fleet.step(5.0)
        assert sent == []
        handle = fleet.submit(replace(load[0], arrival=6.0))
        sent.clear()
        fleet.step(6.5)
        # Only the shard holding the query is stepped.
        assert sent == [(handle.shard, "StepTo")]
        fleet.drain()
        sent.clear()
        fleet.step(fleet.clock.now + 1.0)
        assert sent == []
    finally:
        fleet.close()


def test_a_sibling_without_queries_still_holds_every_mirrored_entry(
        fed, load):
    """Completions on shard 0 are mirrored to shard 1, which never
    receives a query and so is never stepped: its queued mirrors still
    go down the pipe on every step."""
    fleet = make_fleet(fed, "process", 2, ToShardZero())
    sibling = fleet.workers[1]
    try:
        sent = record_frames(fleet)
        keys = set()
        for kq in load:
            handle = fleet.submit(kq)
            list(handle.results())
            if handle.via == "engine":
                keys.add(normalize_key(kq.keywords, kq.k))
            fleet.step(fleet.clock.now)
            assert not sibling._puts
        assert {shard for shard, kind in sent if kind != "CachePut"} == {0}
        assert sent.count((1, "CachePut")) == len(keys) > 1
        view = sibling.registry_view()
        assert view.get("repro_answer_cache_entries").samples() \
            == {(): float(len(keys))}
    finally:
        fleet.close()


# -- crash semantics ---------------------------------------------------------


def kill_worker(fleet, shard):
    proc = fleet.workers[shard]._proc
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(10.0)


def refuse_spawn():
    raise OSError("respawn refused")


def without_respawn(fleet):
    """Make every worker's respawn fail, as a failed ``Popen`` would:
    a worker killed from here on stays dead."""
    for worker in fleet.workers:
        worker._spawn = refuse_spawn
    return fleet


#: A front door with a 2-shard process fleet serving one query; prints
#: the query's status and how many child processes the front door has
#: while the fleet is live (-1 where there is no ``/proc`` to scan).
FLEET_PROGRAM = """
import os
from repro.common.config import ExecutionConfig
from repro.data.figure1 import figure1_federation
from repro.keyword.queries import KeywordQuery
from repro.service import ShardedQService, WorkerSpec

def children():
    if not os.path.isdir("/proc/self"):
        return -1
    count = 0
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        count += ppid == os.getpid()
    return count

config = ExecutionConfig(k=3)
fleet = ShardedQService(figure1_federation(), config, n_shards=2,
                        workers="process",
                        worker_spec=WorkerSpec.figure1(config))
try:
    handle = fleet.submit(KeywordQuery("Q1", ("protein", "gene"), k=3))
    fleet.drain()
    print(handle.status.value, children())
finally:
    fleet.close()
"""


def run_fleet_program(argv, **kwargs):
    """Run :data:`FLEET_PROGRAM` in a fresh interpreter on this tree;
    returns its ``(status, children)`` line."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": src}, **kwargs)
    assert proc.returncode == 0, proc.stderr[-4000:]
    status, children = proc.stdout.split()
    return status, int(children)


def test_a_program_read_on_stdin_runs_a_process_fleet():
    """The workers import the engine by module name, never the front
    door's ``__main__``, so a program with no file behind it (here
    ``python -``) can still start them."""
    status, _ = run_fleet_program(["-"], input=FLEET_PROGRAM)
    assert status == "done"


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="counts children through /proc")
def test_a_two_shard_fleet_has_exactly_two_child_processes():
    """One process per shard and no helper process beside them."""
    status, children = run_fleet_program(["-c", FLEET_PROGRAM])
    assert (status, children) == ("done", 2)


def fresh_queries(fed, index):
    """Arrivals the differential load never used: 3-keyword queries
    cannot collide with its 2-keyword cache keys, so each one must be
    routed, never served at the front door."""
    later = generate_load(fed, LoadConfig(
        n_queries=6, rate_qps=4.0, k=K, keywords_per_query=3,
        n_templates=6, vocabulary_size=12, seed=11), index=index)
    return [kq for kq in later]


def test_crash_fails_inflight_and_reroutes(fed, index, load):
    fleet = without_respawn(make_fleet(fed, "process", 2, "roundrobin"))
    try:
        handles = [fleet.submit(kq) for kq in load[:6]]
        kill_worker(fleet, 0)
        fleet.drain()

        victims = [h for h in handles if h.status.value == "failed"]
        assert victims, "shard 0 held in-flight queries; some must fail"
        for h in victims:
            assert "worker crashed" in h.reason
            assert h.answers == []
        survivors = [h for h in handles if h.status.value == "done"]
        assert len(victims) + len(survivors) == len(handles)

        report = fleet.report()
        assert report.telemetry.failed == len(victims)
        assert report.telemetry.worker_restarts == 0
        assert not fleet.workers[0].alive
        assert fleet.workers[1].alive

        routed = []
        for i, kq in enumerate(fresh_queries(fed, index)):
            h = fleet.submit(kq, arrival=100.0 + i)
            if h.shard is not None:
                routed.append(h)
        fleet.drain()
        assert routed, "post-crash arrivals must still be served"
        assert all(h.shard == 1 for h in routed)
        assert all(h.status.value == "done" for h in routed)
        assert fleet.routing_stats.crash_reroutes > 0
    finally:
        fleet.close()


def test_crash_restart_respawns_and_serves_again(fed, index, load):
    fleet = make_fleet(fed, "process", 2, "roundrobin")
    try:
        handles = [fleet.submit(kq) for kq in load[:6]]
        kill_worker(fleet, 0)
        fleet.drain()

        assert any(h.status.value == "failed" for h in handles)
        assert all(w.alive for w in fleet.workers)

        # The respawned worker serves again -- round-robin sends fresh
        # arrivals to both shards, none may fail.
        after = []
        for i, kq in enumerate(fresh_queries(fed, index)):
            after.append(fleet.submit(kq, arrival=100.0 + i))
        fleet.drain()
        assert all(h.status.value == "done" for h in after)
        assert {h.shard for h in after if h.shard is not None} == {0, 1}

        report = fleet.report()
        assert report.telemetry.worker_restarts == 1
        # Failed and completed queries never double-count.
        failed = sum(1 for h in handles if h.status.value == "failed")
        done = sum(1 for h in handles + after
                   if h.status.value == "done")
        assert report.telemetry.failed == failed
        assert report.telemetry.completed >= done
    finally:
        fleet.close()


def test_crash_closes_the_traces_of_the_queries_it_fails(fed, load):
    """A query lost to a worker crash reaches its terminal disposition
    in the trace too: ``failed``, stamped once, root closed."""
    from repro.obs.trace import TERMINAL, Tracer

    fleet = without_respawn(make_fleet(fed, "process", 2, "roundrobin",
                                       tracer=Tracer()))
    try:
        handles = [fleet.submit(kq) for kq in load[:6]]
        kill_worker(fleet, 0)
        fleet.drain()
        victims = [h for h in handles if h.status.value == "failed"]
        assert victims
        for h in victims:
            trace = fleet.trace_of(h)
            assert trace.finished
            assert trace.root.attrs["disposition"] == "failed"
            assert trace.root.v_end is not None
            terminals = [s for s in trace.root.children
                         if s.name == TERMINAL]
            assert len(terminals) == 1
            assert terminals[0].attrs["reason"] == h.reason
    finally:
        fleet.close()


def test_a_dead_incarnation_adds_counters_but_not_gauges(fed, load):
    """Across a shard's incarnations counters sum, but a level is the
    live process's: after a kill and respawn, shard 0's stored state
    and cache entries read the fresh worker's, while its submissions
    still count the dead worker's."""
    fleet = make_fleet(fed, "process", 2, "roundrobin")
    try:
        for kq in load[:6]:
            fleet.submit(kq)
        fleet.drain()
        # The snapshot the crash retains.
        before = fleet.metrics_registry()
        submitted = before.get("repro_service_submitted_total") \
            .value(shard="0")
        assert submitted > 0
        assert before.get("repro_state_tuples").value(
            mode="ATC-FULL", shard="0") > 0
        assert before.get("repro_answer_cache_entries").value(
            shard="0") > 0

        kill_worker(fleet, 0)
        fleet.drain()   # finds the worker dead and respawns it
        assert fleet.workers[0].alive
        after = fleet.metrics_registry()
        assert after.get("repro_state_tuples").value(
            mode="ATC-FULL", shard="0") == 0
        assert after.get("repro_answer_cache_entries").value(
            shard="0") == 0
        assert after.get("repro_service_submitted_total").value(
            shard="0") == submitted
        assert fleet.report().telemetry.worker_restarts == 1
    finally:
        fleet.close()


def test_every_worker_dead_raises(fed, load):
    from repro.service import WorkerCrashed

    fleet = without_respawn(make_fleet(fed, "process", 2, "roundrobin"))
    try:
        kill_worker(fleet, 0)
        kill_worker(fleet, 1)
        with pytest.raises(WorkerCrashed):
            fleet.submit(load[0])
    finally:
        fleet.close()


# -- worker-side bookkeeping --------------------------------------------------


def test_worker_forgets_fingerprints_of_terminal_handles(load):
    """The worker loop keeps a handle and its reported-state
    fingerprint only while it still watches it: once the event
    reporting a handle terminal has gone out, nothing per query is
    left."""
    from repro.service.protocol import DrainShard, SubmitQuery
    from repro.service.workers import _WorkerServer

    server = _WorkerServer(WorkerSpec.figure1(
        exec_config(), seed=SEED, cardinalities=dict(CARDS),
        domain_factor=DOMAIN))
    # A reported state carries answers exactly when it is terminal.
    reported_terminal = set()
    for kq in load:
        reply = server.dispatch(SubmitQuery(
            now=kq.arrival, kq_id=kq.kq_id, keywords=tuple(kq.keywords),
            k=kq.k, arrival=kq.arrival, user=kq.user, deadline=None))
        states = [reply.handle, *reply.update.events]
        reported_terminal |= {s.kq_id for s in states
                              if s.answers is not None}
        assert set(server._reported) == set(server._watched)
    reply = server.dispatch(DrainShard(now=server.service.clock.now))
    reported_terminal |= {s.kq_id for s in reply.update.events
                          if s.answers is not None}
    # Every handle was reported terminal before it was forgotten.
    assert reported_terminal == {kq.kq_id for kq in load}
    assert server._watched == {} and server._reported == {}
    assert [name for name, value in vars(server).items()
            if isinstance(value, dict) and value] == []


# -- worker spans -------------------------------------------------------------


def test_trace_of_agrees_with_close_time_adoption(fed, load):
    """A process worker's spans reach the front door two ways: on
    demand through ``trace_of`` and at ``close()`` by adoption into the
    fleet tracer.  Both graft the worker's tree onto the front door's
    the same way, so each query's exported spans must agree."""
    from repro.obs.export import validate_trace_lines
    from repro.obs.trace import Tracer

    fleet = make_fleet(fed, "process", 2, "roundrobin", tracer=Tracer())
    try:
        handles = [fleet.submit(kq) for kq in load]
        fleet.drain()
        before = {h.kq_id: fleet.trace_of(h).jsonl_lines()
                  for h in handles}
    finally:
        fleet.close()
    assert {h.shard for h in handles} >= {0, 1}
    for kq_id, lines in before.items():
        assert validate_trace_lines(lines) == []
        assert fleet.tracer.trace(kq_id).jsonl_lines() == lines
    # The worker-side pipeline spans really arrived.
    assert any('"name": "execution"' in line
               for lines in before.values() for line in lines)


# -- wire-state round-trips ---------------------------------------------------


def test_worker_spec_wire_round_trip():
    spec = WorkerSpec.figure1(exec_config(), seed=SEED,
                              cardinalities=dict(CARDS),
                              domain_factor=DOMAIN)
    back = WorkerSpec.from_wire(spec.to_wire())
    assert back == spec
    assert back.execution_config() == exec_config()


@pytest.mark.parametrize("workers", ["inproc", "process"])
def test_reports_read_what_the_registry_holds(fed, load, cancels, workers):
    """The registry is the one counter store a shard ships: a fleet
    report's telemetry counters are the summed ``repro_service_*`` /
    ``repro_optimizer_*`` series, and each shard's engine totals are
    its ``shard``-labelled engine series.  Every int/float ``Metrics``
    counter has a series, so none can drop out of a process fleet's
    report."""
    from dataclasses import fields

    from repro.obs.records import Metrics
    from repro.service import Telemetry
    from repro.service.shard import ENGINE_SERIES

    blank = Metrics()
    assert set(ENGINE_SERIES) == {
        f.name for f in fields(Metrics)
        if type(getattr(blank, f.name)) in (int, float)}

    fleet = make_fleet(fed, workers, 2, "hash")
    try:
        drive(fleet, load, cancels)
        report = fleet.report()
        registry = fleet.metrics_registry()

        def series(name, **labels):
            return sum(value for key, value
                       in registry.get(name).samples().items()
                       if labels.items() <= dict(key).items())

        for name in Telemetry.COUNTER_FIELDS:
            metric = getattr(Telemetry, name).metric
            assert getattr(report.telemetry, name) \
                == pytest.approx(series(metric), rel=1e-12), name
        assert report.telemetry.completed > 0
        # The samples cross beside the registry, one per completion.
        latency = registry.get("repro_service_latency_virtual_seconds")
        assert len(report.telemetry.latencies) == report.telemetry.completed \
            == sum(n for _counts, _sum, n in latency.dists().values())
        for i, shard in enumerate(report.shard_reports):
            metrics = shard.engine_metrics()
            for name, (metric, _help) in ENGINE_SERIES.items():
                assert getattr(metrics, name) \
                    == series(metric, shard=str(i)), (i, name)
            assert metrics.stream_tuples_read > 0
            assert dict(metrics.per_source_reads) == {
                source: series("repro_engine_source_reads_total",
                               shard=str(i), source=source)
                for source in metrics.per_source_reads}
    finally:
        fleet.close()


def test_registry_state_round_trip(fed, load, cancels):
    from repro.obs.instruments import MetricsRegistry

    fleet = make_fleet(fed, "inproc", 2, "hash")
    try:
        drive(fleet, load, cancels)
        registry = fleet.metrics_registry()
        back = MetricsRegistry.from_state(registry.state())
        assert back.render_prometheus() == registry.render_prometheus()
    finally:
        fleet.close()
