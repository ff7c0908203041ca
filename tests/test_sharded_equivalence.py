"""Differential harness: sharding must never change answers.

The sharded tier re-routes, spills over, caches at the front door, and
runs N plan-graph arenas in parallel -- all of it scheduling.  The
ranked answer set of every query is a pure function of the data and the
query, so for a seeded workload the fleet must return, per query, the
same ranked answers as a single-engine :class:`QService`, across all
four sharing modes, every routing policy, and 1/2/4 shards.
"""

import pytest

from repro.common.config import DelayModel, ExecutionConfig, SharingMode
from repro.data.figure1 import figure1_federation
from repro.data.inverted import InvertedIndex
from repro.keyword.candidates import CandidateNetworkGenerator
from repro.keyword.queries import KeywordQuery
from repro.service import (
    LoadConfig,
    QService,
    ServiceConfig,
    ShardedQService,
    generate_load,
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


def config_for(mode, **overrides):
    return ExecutionConfig(mode=mode, k=K, seed=1, batch_window=2.0,
                           delays=DelayModel(deterministic=True), **overrides)


def answer_sets(tickets):
    """Per query: the ranked answers in a scheduling-independent form.

    Compares the ordered score sequence plus the (unordered, since
    equal-score ties may legally permute) bag of answer rows above the
    top-k boundary score -- rows tying exactly at the cutoff are
    interchangeable members of any valid top-k.  The ``cq_id`` is
    deliberately excluded: a query served from the cache carries its
    twin's candidate-network ids, which differ only in the originating
    query's name.
    """
    out = {}
    for t in tickets:
        assert t.done, t
        scores = [pytest.approx(a.score) for a in t.answers]
        cutoff = round(min((a.score for a in t.answers), default=0.0), 6)
        rows = sorted(
            (round(a.score, 6),
             tuple(sorted((rel, tid) for _al, rel, tid in a.provenance)))
            for a in t.answers if round(a.score, 6) > cutoff)
        out[t.kq_id] = (scores, rows)
    return out


@pytest.fixture(scope="module")
def baselines(fed, index, load):
    """Single-engine QService answers, one run per sharing mode."""
    out = {}
    for mode in ALL_MODES:
        svc = QService(fed, config_for(mode), index=index)
        report = svc.run(load)
        assert report.telemetry.completed == len(load)
        out[mode] = answer_sets(report.tickets)
    return out


class TestShardCountInvariance:
    """The acceptance matrix: 4 sharing modes x 1/2/4 shards."""

    @pytest.mark.parametrize("mode", ALL_MODES, ids=str)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_matches_single_engine(self, fed, index, load, baselines,
                                   mode, shards):
        fleet = ShardedQService(fed, config_for(mode), n_shards=shards,
                                routing="cluster", index=index)
        report = fleet.run(load)
        assert report.telemetry.completed == len(load)
        assert answer_sets(report.tickets) == baselines[mode]

    @pytest.mark.parametrize("routing", ("roundrobin", "hash"))
    def test_routing_policy_invariance(self, fed, index, load, baselines,
                                       routing):
        """Content-blind policies scatter differently but answer alike."""
        fleet = ShardedQService(fed, config_for(SharingMode.ATC_FULL),
                                n_shards=3, routing=routing, index=index)
        report = fleet.run(load)
        assert answer_sets(report.tickets) == \
            baselines[SharingMode.ATC_FULL]
        if routing == "roundrobin":
            # Round-robin provably exercises every worker.
            assert all(n > 0 for n in report.routing.routed)

    def test_tight_budget_defer_still_invariant(self, fed, index, load,
                                                baselines):
        """Per-shard budgets force deferrals and spill-overs; answers
        must still match the unconstrained single engine."""
        fleet = ShardedQService(
            fed, config_for(SharingMode.ATC_FULL), n_shards=2,
            routing="hash",
            service=ServiceConfig(max_in_flight=1,
                                  admission_policy="defer"))
        report = fleet.run(load)
        assert report.telemetry.completed == len(load)
        assert answer_sets(report.tickets) == \
            baselines[SharingMode.ATC_FULL]


class TestPlanCacheInvariance:
    """What is left of the plan cache -- keyword-expansion interning --
    must be answer-invariant, at every sharing mode and shard count,
    including when every repeat reaches the optimizer."""

    @pytest.mark.parametrize("mode", ALL_MODES, ids=str)
    def test_single_engine_byte_identical(self, fed, index, load,
                                          baselines, mode):
        """The optimizer's measured wall is charged to the virtual
        clock by default; charging none of it moves arrivals against
        execution but must not change the answers."""
        svc = QService(fed, config_for(mode, optimizer_time_scale=0.0),
                       index=index)
        assert answer_sets(svc.run(load).tickets) == baselines[mode]

    @pytest.mark.parametrize("mode", ALL_MODES, ids=str)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_fleet_without_cache_matches_baseline(self, fed, index, load,
                                                  baselines, mode, shards):
        """With the answer cache expiring at once and coalescing off,
        every repeat re-expands from the fleet's interned templates and
        re-optimizes; the fleet must still land on the baselines."""
        fleet = ShardedQService(
            fed, config_for(mode), n_shards=shards, routing="cluster",
            service=ServiceConfig(coalesce=False, cache_ttl=1e-9),
            index=index)
        report = fleet.run(load)
        assert report.telemetry.completed == len(load)
        assert answer_sets(report.tickets) == baselines[mode]

    @pytest.mark.parametrize("mode", ALL_MODES, ids=str)
    def test_byte_identical_when_repeats_reach_optimizer(self, fed, index,
                                                         load, baselines,
                                                         mode):
        """The answer cache normally absorbs the Zipf head before the
        optimizer sees it; with coalescing off and an expiring cache
        every repeat is instantiated from an interned expansion and
        optimized again -- and answers as the baseline does."""
        svc = QService(fed, config_for(mode),
                       service=ServiceConfig(coalesce=False, cache_ttl=1e-9),
                       index=index)
        report = svc.run(load)
        assert svc.workers[0].engine.repository.stats.expansion_hits > 0, \
            "scenario must exercise expansion interning"
        assert answer_sets(report.tickets) == baselines[mode]


class TestShardedMechanics:
    """Unit behaviour specific to the fleet front door."""

    def test_front_door_cache_serves_repeats(self, fed, index):
        fleet = ShardedQService(fed, config_for(SharingMode.ATC_FULL),
                                n_shards=2, routing="roundrobin",
                                index=index)
        t1 = fleet.submit(KeywordQuery(
            "KQ1", ("protein", "plasma membrane"), k=K, arrival=0.0))
        fleet.drain()
        assert t1.done and t1.via == "engine"
        # Round-robin would send the repeat to the *other* shard; the
        # shared tier answers it before routing even runs.
        t2 = fleet.submit(KeywordQuery(
            "KQ2", ("Plasma Membrane", "PROTEIN"), k=K,
            arrival=fleet.workers[t1.shard].engine.virtual_now() + 1.0))
        assert t2.done and t2.via == "cache"
        assert t2.shard is None
        assert [a.score for a in t2.answers] == \
            [a.score for a in t1.answers]
        assert fleet.routing_stats.front_cache_hits == 1
        assert fleet.routing_stats.routed == [1, 0]

    def test_cross_shard_cache_sharing(self, fed, index):
        """A query executed on shard 0 serves its twin even when the
        router would place the twin on shard 1."""
        fleet = ShardedQService(fed, config_for(SharingMode.ATC_FULL),
                                n_shards=2, routing="roundrobin",
                                index=index)
        fleet.submit(KeywordQuery("KQ1", ("protein", "plasma membrane"),
                                  k=K, arrival=0.0))
        fleet.drain()
        hits_before = fleet.cache.stats.hits
        fleet.submit(KeywordQuery("KQ2", ("protein", "plasma membrane"),
                                  k=K, arrival=100.0))
        assert fleet.cache.stats.hits == hits_before + 1

    def test_spill_over_to_least_loaded(self, fed, index):
        """A saturated preferred shard hands the query to the idle one
        instead of shedding it.  Uses a custom policy instance (the
        protocol is pluggable) that pins everything to shard 0, so the
        saturation is deterministic."""

        class PinRouter:
            name = "pin"
            needs_expansion = False

            def route(self, kq, uq, n_shards):
                return 0

        fleet = ShardedQService(
            fed, config_for(SharingMode.ATC_FULL), n_shards=2,
            routing=PinRouter(), index=index,
            service=ServiceConfig(max_in_flight=1, coalesce=False))
        queries = [("protein", "plasma membrane"), ("membrane", "gene")]
        tickets = [
            fleet.submit(KeywordQuery(f"KQ{i}", kws, k=K, arrival=0.1 * i))
            for i, kws in enumerate(queries)
        ]
        assert fleet.routing_stats.spillovers == 1
        assert [t.shard for t in tickets] == [0, 1]
        assert not any(t.status == "rejected" for t in tickets)
        fleet.drain()
        assert all(t.done for t in tickets)

    def test_fleet_saturation_falls_back_to_policy(self, fed, index):
        """With every shard over budget, the routed worker's own
        admission policy (reject) applies."""
        fleet = ShardedQService(
            fed, config_for(SharingMode.ATC_FULL), n_shards=2,
            routing="roundrobin", index=index,
            service=ServiceConfig(max_in_flight=1, coalesce=False))
        queries = [("protein", "plasma membrane"), ("membrane", "gene"),
                   ("plasma membrane", "gene")]
        tickets = [
            fleet.submit(KeywordQuery(f"KQ{i}", kws, k=K, arrival=0.1 * i))
            for i, kws in enumerate(queries)
        ]
        assert tickets[2].status == "rejected"
        assert "budget" in tickets[2].reason
        report = fleet.drain()
        assert report.telemetry.rejected == 1
        assert report.telemetry.completed == 2

    def test_fleet_telemetry_aggregates_all_arrivals(self, fed, index,
                                                     load):
        fleet = ShardedQService(fed, config_for(SharingMode.ATC_FULL),
                                n_shards=4, routing="cluster", index=index)
        report = fleet.run(load)
        assert report.telemetry.submitted == len(load)
        assert report.telemetry.completed == len(load)
        per_shard = sum(r.telemetry.submitted for r in report.shard_reports)
        assert per_shard + report.routing.front_cache_hits == len(load)
        assert len(report.telemetry.latencies) == len(load)
        pcts = report.telemetry.latency_percentiles()
        assert 0.0 <= pcts["p50"] <= pcts["p95"] <= pcts["p99"]

    def test_rejects_nonpositive_shards(self, fed, index):
        with pytest.raises(ValueError):
            ShardedQService(fed, config_for(SharingMode.ATC_FULL),
                            n_shards=0, index=index)

    def test_unknown_policy_rejected(self, fed, index):
        with pytest.raises(ValueError):
            ShardedQService(fed, config_for(SharingMode.ATC_FULL),
                            n_shards=2, routing="random", index=index)

    def test_unmatchable_keywords_served_empty(self, fed, index):
        fleet = ShardedQService(fed, config_for(SharingMode.ATC_FULL),
                                n_shards=2, routing="cluster", index=index)
        ticket = fleet.submit(KeywordQuery("KQX", ("zzzznothing",), k=K,
                                           arrival=0.0))
        assert ticket.done and ticket.via == "empty"
        assert ticket.answers == []

    def test_shared_generator_expands_once_for_cluster_routing(
            self, fed, index, monkeypatch):
        """Cluster routing pre-expands for the footprint; the worker
        must reuse that expansion instead of generating again."""
        fleet = ShardedQService(fed, config_for(SharingMode.ATC_FULL),
                                n_shards=2, routing="cluster", index=index)
        calls = []
        original = CandidateNetworkGenerator.generate

        def counting(self, kq):
            calls.append(kq.kq_id)
            return original(self, kq)

        monkeypatch.setattr(CandidateNetworkGenerator, "generate", counting)
        fleet.submit(KeywordQuery("KQ1", ("protein", "plasma membrane"),
                                  k=K, arrival=0.0))
        assert calls == ["KQ1"]

    def test_deferred_query_not_reexpanded(self, fed, index, monkeypatch):
        """A deferred query's pre-expansion rides along in the retry
        queue; budget-freeing retries must not expand again."""
        fleet = ShardedQService(
            fed, config_for(SharingMode.ATC_FULL), n_shards=1,
            routing="cluster", index=index,
            service=ServiceConfig(max_in_flight=1, coalesce=False,
                                  admission_policy="defer"))
        calls = []
        original = CandidateNetworkGenerator.generate

        def counting(self, kq):
            calls.append(kq.kq_id)
            return original(self, kq)

        monkeypatch.setattr(CandidateNetworkGenerator, "generate", counting)
        t1 = fleet.submit(KeywordQuery("KQ1", ("protein", "plasma membrane"),
                                       k=K, arrival=0.0))
        fleet.step(2.1)   # KQ1 dispatched and running
        t2 = fleet.submit(KeywordQuery("KQ2", ("membrane", "gene"), k=K,
                                       arrival=2.2))
        assert t2.status == "deferred"
        fleet.drain()
        assert t1.done and t2.done and t2.via == "engine"
        assert calls == ["KQ1", "KQ2"]

    def test_inflight_twin_pinned_to_leader_shard(self, fed, index):
        """PR 3 regression: under round-robin routing an identical
        in-flight query must be pinned to its leader's shard and
        coalesced there -- previously the rotation sent it to the other
        shard and both copies executed the full plan."""
        fleet = ShardedQService(fed, config_for(SharingMode.ATC_FULL),
                                n_shards=2, routing="roundrobin",
                                index=index)
        t1 = fleet.submit(KeywordQuery(
            "KQ1", ("protein", "plasma membrane"), k=K, arrival=0.0))
        fleet.step(2.1)   # dispatched, mid-execution
        assert t1.status == "in-flight" and t1.shard == 0
        t2 = fleet.submit(KeywordQuery(
            "KQ2", ("Plasma Membrane", "PROTEIN"), k=K, arrival=2.2))
        # Round-robin alone would have rotated KQ2 onto shard 1.
        assert t2.shard == 0
        assert t2.via == "coalesced"
        assert fleet.routing_stats.affinity_overrides == 1
        assert fleet.routing_stats.routed == [2, 0]
        fleet.drain()
        assert t1.done and t2.done
        assert [a.score for a in t2.answers] == \
            [a.score for a in t1.answers]
        # Shard 1 never executed anything.
        shard1 = fleet.workers[1].engine.report()
        assert shard1.metrics.total_input_tuples == 0

    def test_affinity_override_expires_with_leader(self, fed, index):
        """Once the leader resolves, repeats go through the cache (or
        normal routing) -- the registry prunes itself on access."""
        fleet = ShardedQService(fed, config_for(SharingMode.ATC_FULL),
                                n_shards=2, routing="roundrobin",
                                index=index)
        fleet.submit(KeywordQuery("KQ1", ("protein", "plasma membrane"),
                                  k=K, arrival=0.0))
        fleet.drain()
        t2 = fleet.submit(KeywordQuery(
            "KQ2", ("protein", "plasma membrane"), k=K,
            arrival=fleet.workers[0].engine.virtual_now() + 1.0))
        assert t2.via == "cache"
        assert fleet.routing_stats.affinity_overrides == 0
        # Far past the TTL the cache misses; the resolved leader must
        # be pruned (not pinned to) and the policy routes normally.
        t3 = fleet.submit(KeywordQuery(
            "KQ3", ("protein", "plasma membrane"), k=K,
            arrival=fleet.workers[0].engine.virtual_now() + 1000.0))
        assert fleet.routing_stats.affinity_overrides == 0
        assert t3.shard == 1   # round-robin rotation, no pinning
        fleet.drain()
        assert t3.done

    def test_coalesce_disabled_skips_pinning(self, fed, index):
        fleet = ShardedQService(
            fed, config_for(SharingMode.ATC_FULL), n_shards=2,
            routing="roundrobin", index=index,
            service=ServiceConfig(coalesce=False))
        fleet.submit(KeywordQuery("KQ1", ("protein", "plasma membrane"),
                                  k=K, arrival=0.0))
        fleet.step(2.1)
        t2 = fleet.submit(KeywordQuery(
            "KQ2", ("protein", "plasma membrane"), k=K, arrival=2.2))
        assert t2.shard == 1          # rotation, no pinning
        assert fleet.routing_stats.affinity_overrides == 0
        fleet.drain()

    def test_duplicate_keywords_colocate_with_canonical_form(
            self, fed, index):
        """hash routing places cache-identical queries (duplicates and
        case collapse away) on the same shard, at any shard count."""
        from repro.service.routing import stable_shard
        for n_shards in (2, 3, 5, 7):
            assert stable_shard(("gene", "gene", "PROTEIN"), n_shards) == \
                stable_shard(("protein", "gene"), n_shards)


class TestSharedFleetClock:
    """PR 7 regression: the fleet runs on ONE clock instance shared by
    the front door and every worker, so 'the fleet's now' is a fact by
    construction.  The old design kept a per-front-door ``_now`` that
    only caught up with pump-advanced workers at the next step/drain
    aggregation -- a submission in that gap was backdated relative to
    the worker that had already run ahead."""

    def make_fleet(self, fed, index, **kwargs):
        return ShardedQService(fed, config_for(SharingMode.ATC_FULL),
                               n_shards=2, routing="roundrobin",
                               index=index, **kwargs)

    def test_workers_share_the_front_door_clock(self, fed, index):
        fleet = self.make_fleet(fed, index)
        assert all(worker.clock is fleet.clock
                   for worker in fleet.workers)

    def test_pump_advanced_worker_is_the_fleet_instant(self, fed, index):
        """Streaming a query pumps one shard's engine ahead; the front
        door must observe that instant immediately -- the next
        submission's arrival is clamped to it, never backdated."""
        fleet = self.make_fleet(fed, index)
        t1 = fleet.submit(KeywordQuery(
            "KQ1", ("protein", "plasma membrane"), k=K, arrival=0.0))
        list(t1.results())               # pump shard 0 to completion
        assert t1.done
        pumped_to = fleet.clock.now
        assert pumped_to > 0.0           # the worker really ran ahead
        t2 = fleet.submit(KeywordQuery(
            "KQ2", ("membrane", "gene"), k=K, arrival=0.5))
        assert t2.arrival >= pumped_to   # clamped to the fleet instant
        fleet.drain()
        assert t2.done
