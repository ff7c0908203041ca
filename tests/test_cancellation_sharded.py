"""Differential harness: cancellation must never change survivors.

Cancelling or expiring one query unlinks its taps from a plan graph
other queries are still executing on -- the riskiest surgery the v2
API performs.  These tests fire a fixed, seeded schedule of
cancellations and deadlines mid-run and assert that every *surviving*
query's ranked answers are identical to the untouched baseline run,
across all four sharing modes, the single-engine service, and 1/2/4
shards -- i.e. retiring a query releases exactly its own share of the
work and nothing anyone else depends on.

Plus the coalescing regression pair: cancelling a coalesced follower
must detach only that follower, and cancelling the leader must promote
a follower instead of killing the shared execution.
"""

import pytest

from repro.common.config import DelayModel, ExecutionConfig, SharingMode
from repro.data.figure1 import figure1_federation
from repro.data.inverted import InvertedIndex
from repro.keyword.queries import KeywordQuery
from repro.service import (
    LoadConfig,
    QService,
    QueryStatus,
    ServiceConfig,
    ShardedQService,
    WorkerSpec,
    generate_load,
    normalize_key,
)

CARDS = {
    "UP": 60, "TP": 50, "E": 40, "E2M": 70, "I2G": 70,
    "T": 60, "TS": 65, "G2G": 75, "GI": 60, "RL": 65,
}
K = 6
ALL_MODES = (SharingMode.ATC_CQ, SharingMode.ATC_UQ,
             SharingMode.ATC_FULL, SharingMode.ATC_CL)
SHARD_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def fed():
    return figure1_federation(seed=7, cardinalities=dict(CARDS),
                              domain_factor=0.7)


@pytest.fixture(scope="module")
def index(fed):
    return InvertedIndex(fed)


@pytest.fixture(scope="module")
def load(fed, index):
    return generate_load(fed, LoadConfig(n_queries=18, rate_qps=4.0, k=K,
                                         n_templates=6, vocabulary_size=12,
                                         seed=5), index=index)


@pytest.fixture(scope="module")
def schedule(load):
    """A deterministic retirement schedule over template *first
    occurrences* (no earlier twin can have cached or coalesced them,
    whatever the topology): two cancellations and two deadlines, all
    closer to the victim's arrival than the virtual time its execution
    alone takes, so they fire before any config can complete it
    however little wall time the optimizer charges to the clock."""
    firsts = []
    seen = set()
    for q in load:
        key = normalize_key(q.keywords, q.k)
        if key not in seen:
            seen.add(key)
            firsts.append(q)
    assert len(firsts) >= 4, "load must expose at least 4 templates"
    cancels = {firsts[0].kq_id: firsts[0].arrival + 0.05,
               firsts[2].kq_id: firsts[2].arrival + 0.08}
    deadlines = {firsts[1].kq_id: firsts[1].arrival + 0.5,
                 firsts[3].kq_id: firsts[3].arrival + 0.1}
    return cancels, deadlines


def config_for(mode, **overrides):
    return ExecutionConfig(mode=mode, k=K, seed=1, batch_window=2.0,
                           delays=DelayModel(deterministic=True), **overrides)


def answer_sets(tickets):
    """Per *surviving* (done) query: the ranked answers in the harness's
    scheduling-independent form (see test_sharded_equivalence)."""
    out = {}
    for t in tickets:
        if not t.done:
            continue
        scores = [pytest.approx(a.score) for a in t.answers]
        cutoff = round(min((a.score for a in t.answers), default=0.0), 6)
        rows = sorted(
            (round(a.score, 6),
             tuple(sorted((rel, tid) for _al, rel, tid in a.provenance)))
            for a in t.answers if round(a.score, 6) > cutoff)
        out[t.kq_id] = (scores, rows)
    return out


def run_with_schedule(service, load, schedule):
    """Drive one arrival stream with the retirement schedule applied:
    targeted queries get their deadline at submit; cancellations fire
    at their scheduled instants, interleaved with arrivals."""
    cancels, deadlines = schedule
    due = sorted(cancels.items(), key=lambda kv: kv[1])
    handles = {}

    def fire(now):
        while due and (now is None or due[0][1] <= now):
            kq_id, at = due.pop(0)
            handle = handles.get(kq_id)
            if handle is not None and not handle.terminal:
                service.step(at)
                handle.cancel()

    for q in sorted(load, key=lambda q: q.arrival):
        fire(q.arrival)
        handles[q.kq_id] = service.submit(
            q, deadline=deadlines.get(q.kq_id))
    fire(None)
    return service.drain()


def check_run(report, load, schedule, baseline):
    cancels, deadlines = schedule
    by_id = {t.kq_id: t for t in report.tickets}
    for kq_id in cancels:
        assert by_id[kq_id].status is QueryStatus.CANCELLED, kq_id
    for kq_id in deadlines:
        assert by_id[kq_id].status is QueryStatus.EXPIRED, kq_id
    survivors = answer_sets(report.tickets)
    expected_survivors = set(by_id) - set(cancels) - set(deadlines)
    assert set(survivors) == expected_survivors
    assert survivors == {k: baseline[k] for k in expected_survivors}
    tel = report.telemetry
    assert tel.cancelled == len(cancels)
    assert tel.expired == len(deadlines)
    assert tel.completed == len(load) - len(cancels) - len(deadlines)


@pytest.fixture(scope="module")
def baselines(fed, index, load):
    """Untouched single-engine answers (no cancellations), per mode."""
    out = {}
    for mode in ALL_MODES:
        svc = QService(fed, config_for(mode), index=index)
        report = svc.run(load)
        assert report.telemetry.completed == len(load)
        out[mode] = answer_sets(report.tickets)
    return out


class TestSurvivorInvariance:
    """Retirements mid-run, survivors byte-identical to the untouched
    baseline: 4 sharing modes x (single engine + 1/2/4 shards)."""

    @pytest.mark.parametrize("mode", ALL_MODES, ids=str)
    def test_single_engine(self, fed, index, load, schedule, baselines,
                           mode):
        svc = QService(fed, config_for(mode), index=index)
        report = run_with_schedule(svc, load, schedule)
        check_run(report, load, schedule, baselines[mode])

    @pytest.mark.parametrize("mode", ALL_MODES, ids=str)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_sharded(self, fed, index, load, schedule, baselines, mode,
                     shards):
        fleet = ShardedQService(fed, config_for(mode), n_shards=shards,
                                routing="cluster", index=index)
        report = run_with_schedule(fleet, load, schedule)
        check_run(report, load, schedule, baselines[mode])

    @pytest.mark.parametrize("routing", ("roundrobin", "hash"))
    def test_routing_policy_invariance(self, fed, index, load, schedule,
                                       baselines, routing):
        fleet = ShardedQService(fed, config_for(SharingMode.ATC_FULL),
                                n_shards=3, routing=routing, index=index)
        report = run_with_schedule(fleet, load, schedule)
        check_run(report, load, schedule, baselines[SharingMode.ATC_FULL])


class TestCoalescedCancellationSharded:
    """The follower-vs-leader regression pair, through the fleet."""

    KWS = ("protein", "plasma membrane")

    def _leader_and_follower(self, fed, index, workers="inproc"):
        config = config_for(SharingMode.ATC_FULL)
        spec = WorkerSpec.figure1(config, seed=7, cardinalities=dict(CARDS),
                                  domain_factor=0.7) \
            if workers == "process" else None
        fleet = ShardedQService(fed, config, n_shards=2,
                                routing="roundrobin", index=index,
                                workers=workers, worker_spec=spec)
        leader = fleet.submit(KeywordQuery("L", self.KWS, k=K, arrival=0.0))
        fleet.step(2.05)   # dispatched on shard 0, mid-execution
        follower = fleet.submit(KeywordQuery("F", self.KWS, k=K,
                                             arrival=2.1))
        # Round-robin alone would rotate F onto shard 1; the front
        # door pins it to its leader's shard, where it coalesces.
        assert follower.via == "coalesced"
        assert follower.shard == leader.shard == 0
        return fleet, leader, follower

    def test_cancel_follower_detaches_only_follower(self, fed, index):
        fleet, leader, follower = self._leader_and_follower(fed, index)
        assert follower.cancel()
        assert follower.status is QueryStatus.CANCELLED
        report = fleet.drain()
        assert leader.done and len(leader.answers) == K
        assert report.telemetry.cancelled == 1
        # Shard 1 never executed anything: the cancel stayed local to
        # the leader's shard and killed no execution.
        shard1 = fleet.workers[1].engine.report()
        assert shard1.metrics.total_input_tuples == 0

    def test_cancel_leader_promotes_follower(self, fed, index):
        fleet, leader, follower = self._leader_and_follower(fed, index)
        work_before = fleet.workers[0].engine.report() \
            .metrics.total_input_tuples
        assert leader.cancel()
        assert leader.status is QueryStatus.CANCELLED
        report = fleet.drain()
        # The shared execution survived its original owner: the
        # follower got the full top-k from it.
        assert follower.done and len(follower.answers) == K
        assert fleet.workers[0].engine.report() \
            .metrics.total_input_tuples > work_before
        assert report.telemetry.cancelled == 1
        assert report.telemetry.completed == 1

    def test_cancel_both_kills_execution(self, fed, index):
        fleet, leader, follower = self._leader_and_follower(fed, index)
        assert follower.cancel()
        assert leader.cancel()
        work_at_cancel = fleet.workers[0].engine.report() \
            .metrics.total_input_tuples
        report = fleet.drain()
        assert leader.status is QueryStatus.CANCELLED
        assert follower.status is QueryStatus.CANCELLED
        # Nothing rode the execution any more; the drain did no
        # further work for it.
        assert fleet.workers[0].engine.report() \
            .metrics.total_input_tuples == work_at_cancel
        assert report.telemetry.completed == 0

    # The two tests below exercise the front door's leadership probe
    # (``inflight_handle``), which a process worker answers from its
    # proxies: both run over both transports.

    @pytest.mark.parametrize("workers", ("inproc", "process"))
    def test_twin_after_promotion_still_coalesces(self, fed, index,
                                                  workers):
        """Cancelling a leader whose follower was promoted must not
        cost later twins their coalescing: the shard's
        ``inflight_handle`` answers with the promoted follower, so a
        third identical arrival is pinned to that shard."""
        fleet, leader, follower = self._leader_and_follower(
            fed, index, workers)
        try:
            assert leader.cancel()
            t3 = fleet.submit(KeywordQuery("T3", self.KWS, k=K,
                                           arrival=2.2))
            assert t3.via == "coalesced"
            assert t3.shard == 0
            assert fleet.routing_stats.affinity_overrides == 2  # F, T3
            fleet.drain()
            assert follower.done and t3.done
            assert [a.score for a in t3.answers] == \
                [a.score for a in follower.answers]
            # Shard 1 never executed anything.
            shard1 = fleet.workers[1].report().engine_report
            assert shard1.metrics.total_input_tuples == 0
        finally:
            fleet.close()

    @pytest.mark.parametrize("workers", ("inproc", "process"))
    def test_front_door_prunes_cancelled_leader(self, fed, index, workers):
        """A twin arriving after its leader was cancelled must not be
        pinned to a dead entry -- it routes (and executes) normally."""
        fleet, leader, follower = self._leader_and_follower(
            fed, index, workers)
        try:
            follower.cancel()
            leader.cancel()
            t3 = fleet.submit(KeywordQuery("T3", self.KWS, k=K,
                                           arrival=3.0))
            assert t3.via == "engine"
            assert fleet.routing_stats.affinity_overrides == 1  # F only
            fleet.drain()
            assert t3.done and len(t3.answers) == K
        finally:
            fleet.close()


class TestDeferredLeaderPinning:
    """A twin arriving while its leader is *parked* (deferred, not yet
    executing) is pinned to the leader's shard, waits there, and
    coalesces onto the leader when the retry admits it."""

    KWS = ("protein", "plasma membrane")

    @pytest.mark.parametrize("workers", ("inproc", "process"))
    def test_twin_of_deferred_leader_coalesces_on_retry(self, fed, index,
                                                        workers):
        config = config_for(SharingMode.ATC_FULL)
        spec = WorkerSpec.figure1(config, seed=7, cardinalities=dict(CARDS),
                                  domain_factor=0.7) \
            if workers == "process" else None
        fleet = ShardedQService(
            fed, config, n_shards=2, routing="roundrobin", index=index,
            service=ServiceConfig(max_in_flight=1, admission_policy="defer"),
            workers=workers, worker_spec=spec)
        try:
            # Fill both shards' single slot, so the next arrival parks.
            fleet.submit(KeywordQuery("A", ("membrane", "gene"), k=K,
                                      arrival=0.0))
            fleet.submit(KeywordQuery("B", ("protein", "gene"), k=K,
                                      arrival=0.0))
            leader = fleet.submit(KeywordQuery("L", self.KWS, k=K,
                                               arrival=0.1))
            assert leader.status is QueryStatus.DEFERRED
            assert leader.shard == 0
            # Round-robin alone would rotate T onto shard 1; the front
            # door pins it to its parked leader's shard instead.
            twin = fleet.submit(KeywordQuery("T", self.KWS, k=K,
                                             arrival=0.2))
            assert twin.status is QueryStatus.DEFERRED
            assert twin.shard == leader.shard
            assert fleet.routing_stats.affinity_overrides == 1
            fleet.drain()
            assert leader.done and leader.via == "engine"
            assert twin.done and twin.via == "coalesced"
            assert len(leader.answers) == K
            assert [a.score for a in twin.answers] == \
                [a.score for a in leader.answers]
        finally:
            fleet.close()
