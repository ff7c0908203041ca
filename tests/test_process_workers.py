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
-- when restarts are enabled -- respawn the worker, serve from it
again, and count ``worker_restarts``.
"""

import os
import signal

import pytest

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


def test_streaming_over_the_wire_sends_only_pumps(fed, load):
    """``results()`` through a process fleet streams the in-process
    fleet's answer sequences, and once a query is submitted its owning
    worker sees nothing but ``PumpQuery`` frames: the answers emitted
    so far ride each reply's events instead of a request of their
    own."""
    keys, queries = set(), []
    for kq in load:
        key = normalize_key(kq.keywords, kq.k)
        if key not in keys and len(queries) < 4:
            keys.add(key)
            queries.append(kq)
    streams = {}
    for workers in ("inproc", "process"):
        fleet = make_fleet(fed, workers, 2, "roundrobin")
        sent = []
        for worker in fleet.workers if workers == "process" else ():
            def record(msg, worker=worker, send=worker._send_raw):
                sent.append((worker.shard, msg.kind))
                send(msg)
            worker._send_raw = record
        try:
            streams[workers] = []
            for kq in queries:
                handle = fleet.submit(kq)
                sent.clear()
                streams[workers].append(list(handle.results()))
                assert handle.done
                if workers == "process":
                    assert sent, "a cold query's stream must pump"
                    assert set(sent) == {(handle.shard, "PumpQuery")}
        finally:
            fleet.close()
    assert all(streams["inproc"])
    assert streams["process"] == streams["inproc"]


# -- crash semantics ---------------------------------------------------------


def kill_worker(fleet, shard):
    proc = fleet.workers[shard]._proc
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(10.0)


def fresh_queries(fed, index):
    """Arrivals the differential load never used: 3-keyword queries
    cannot collide with its 2-keyword cache keys, so each one must be
    routed, never served at the front door."""
    later = generate_load(fed, LoadConfig(
        n_queries=6, rate_qps=4.0, k=K, keywords_per_query=3,
        n_templates=6, vocabulary_size=12, seed=11), index=index)
    return [kq for kq in later]


def test_crash_fails_inflight_and_reroutes(fed, index, load):
    fleet = make_fleet(fed, "process", 2, "roundrobin",
                       restart_workers=False)
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
    fleet = make_fleet(fed, "process", 2, "roundrobin",
                       restart_workers=True)
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

    fleet = make_fleet(fed, "process", 2, "roundrobin",
                       restart_workers=False, tracer=Tracer())
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


def test_every_worker_dead_raises(fed, load):
    from repro.service import WorkerCrashed

    fleet = make_fleet(fed, "process", 2, "roundrobin",
                       restart_workers=False)
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


def test_metrics_state_round_trip():
    """Every int/float counter of ``Metrics`` crosses the wire in the
    fleet view's engine state, so a new engine counter cannot silently
    drop out of a process fleet's report."""
    import json
    from dataclasses import fields

    from repro.obs.records import Metrics
    from repro.service.workers import metrics_from_state, metrics_state

    metrics = Metrics()
    scalars = [f.name for f in fields(Metrics)
               if type(getattr(metrics, f.name)) in (int, float)]
    assert len(scalars) >= 13
    for i, name in enumerate(scalars, start=1):
        setattr(metrics, name, i if isinstance(getattr(metrics, name), int)
                else i + 0.25)
    metrics.per_source_reads.update({"UP": 3, "TP": 5})
    back = metrics_from_state(json.loads(json.dumps(metrics_state(metrics))))
    assert {name: getattr(back, name) for name in scalars} \
        == {name: getattr(metrics, name) for name in scalars}
    assert back.per_source_reads == metrics.per_source_reads


def test_telemetry_state_round_trip(fed, load, cancels):
    from repro.service import Telemetry

    fleet = make_fleet(fed, "inproc", 2, "hash")
    try:
        drive(fleet, load, cancels)
        original = fleet.workers[0].telemetry
        back = Telemetry.from_state(original.state())
        assert back.summary() == original.summary()
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
