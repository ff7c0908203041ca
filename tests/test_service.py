"""Tests for the online query service layer.

Covers the incremental engine API it is built on (step/drain,
re-entrant run), continuous admission with submit-while-running
interleaving, the answer cache (hit/miss, TTL expiry, LRU capacity),
admission control under budget pressure (reject and defer), telemetry
percentile math, the open-loop load generator, the ``serve`` CLI, and
that a harvested query leaves no per-query engine state behind.
"""

import gc
import itertools
import math
import tracemalloc

import pytest

from repro.atc.engine import QSystemEngine
from repro.cli import main
from repro.common.config import DelayModel, ExecutionConfig, SharingMode
from repro.data.figure1 import figure1_federation
from repro.data.inverted import InvertedIndex
from repro.keyword.queries import KeywordQuery, RankedAnswer
from repro.reference import topk_scores
from repro.service import (
    AdmissionController,
    LoadConfig,
    QService,
    ResultCache,
    ServiceConfig,
    Telemetry,
    generate_load,
    normalize_key,
    percentile,
)
from repro.service.loadgen import build_templates, generate_arrivals

from tests.conftest import e2e_corpus

CARDS = {
    "UP": 60, "TP": 50, "E": 40, "E2M": 70, "I2G": 70,
    "T": 60, "TS": 65, "G2G": 75, "GI": 60, "RL": 65,
}
K = 8


@pytest.fixture(scope="module")
def fed():
    return figure1_federation(seed=7, cardinalities=dict(CARDS),
                              domain_factor=0.7)


@pytest.fixture(scope="module")
def index(fed):
    return InvertedIndex(fed)


def engine_config(**overrides):
    base = ExecutionConfig(mode=SharingMode.ATC_FULL, k=K, seed=1,
                           batch_window=2.0,
                           delays=DelayModel(deterministic=True))
    return base.with_overrides(**overrides)


def make_service(fed, index, service=None, **overrides):
    return QService(fed, engine_config(max_cqs_per_uq=8, **overrides),
                    service=service, index=index)


def answer(score, cq="c1"):
    return RankedAnswer("u", cq, score, frozenset())


class TestPercentile:
    def test_empty_is_none(self):
        # The boundary contract: undefined statistics are None, never a
        # silent 0.0 or NaN that could be mistaken for a measurement.
        assert percentile([], 50.0) is None
        assert percentile([], 0.0) is None
        assert percentile([], 100.0) is None

    def test_single_sample_is_every_percentile(self):
        for pct in (0.0, 50.0, 95.0, 99.0, 100.0):
            assert percentile([3.5], pct) == 3.5

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)

    def test_known_quantiles(self):
        samples = [float(i) for i in range(1, 101)]  # 1..100
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 100.0) == 100.0
        assert percentile(samples, 50.0) == pytest.approx(50.5)
        assert percentile(samples, 95.0) == pytest.approx(95.05)
        assert percentile(samples, 99.0) == pytest.approx(99.01)

    def test_order_independent(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == pytest.approx(2.5)

    def test_rejects_bad_pct(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestTelemetry:
    def test_throughput_over_window(self):
        t = Telemetry()
        t.record_arrival(0.0)
        t.record_arrival(5.0)
        t.record_completion(10.0, 10.0)
        t.record_completion(10.0, 5.0)
        assert t.elapsed() == pytest.approx(10.0)
        assert t.throughput() == pytest.approx(0.2)

    def test_no_completions_is_uniformly_none(self):
        t = Telemetry()
        assert t.throughput() is None
        assert t.mean_latency() is None
        assert all(v is None for v in t.latency_percentiles().values())
        summary = t.summary()
        assert summary["throughput_qps"] is None
        assert summary["p50"] is None
        assert summary["completed"] == 0.0   # a measured zero stays 0.0
        assert not any(v is not None and math.isnan(v)
                       for v in summary.values())

    def test_single_sample_window_is_defined(self):
        t = Telemetry()
        t.record_arrival(1.0)
        t.record_completion(3.0, 2.0)
        pcts = t.latency_percentiles()
        assert pcts["p50"] == pcts["p95"] == pcts["p99"] == 2.0
        assert t.mean_latency() == 2.0
        assert t.throughput() == pytest.approx(0.5)

    def test_zero_width_window_with_completion_is_inf(self):
        t = Telemetry()
        t.record_arrival(1.0)
        t.record_completion(1.0, 0.0)
        assert t.throughput() == float("inf")

    def test_render_mentions_percentiles(self):
        t = Telemetry()
        t.record_arrival(0.0)
        t.record_completion(1.0, 1.0)
        text = t.render(cache_hit_rate=0.5)
        for token in ("p50", "p95", "p99", "throughput", "hit rate"):
            assert token in text

    def test_render_empty_window_prints_na(self):
        text = Telemetry().render()
        assert "n/a" in text
        assert "nan" not in text

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            Telemetry().record_completion(1.0, -0.1)

    def test_merged_aggregates_shards(self):
        a, b, c = Telemetry(), Telemetry(), Telemetry()
        a.record_arrival(0.0)
        a.record_completion(2.0, 2.0)
        b.record_arrival(1.0)
        b.record_completion(9.0, 8.0)
        b.record_rejection()
        fleet = Telemetry.merged([a, b, c])
        assert fleet.submitted == 2
        assert fleet.completed == 2
        assert fleet.rejected == 1
        assert sorted(fleet.latencies) == [2.0, 8.0]
        assert fleet.first_arrival == 0.0
        assert fleet.elapsed() == pytest.approx(9.0)
        assert fleet.throughput() == pytest.approx(2 / 9)

    def test_merged_of_empties_is_empty(self):
        fleet = Telemetry.merged([Telemetry(), Telemetry()])
        assert fleet.submitted == 0
        assert fleet.throughput() is None


class TestResultCache:
    def test_normalize_key_folds_case_and_order(self):
        assert normalize_key(("Protein", "gene"), 5) == \
            normalize_key(("GENE", "protein"), 5)
        assert normalize_key(("protein", "gene"), 5) != \
            normalize_key(("protein", "gene"), 6)

    def test_hit_and_miss_accounting(self):
        cache = ResultCache(ttl=10.0)
        key = normalize_key(("a", "b"), 3)
        assert cache.get(key, now=0.0) is None
        cache.put(key, [answer(0.9)], now=1.0)
        got = cache.get(key, now=2.0)
        assert got is not None and got[0].score == 0.9
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_ttl_expiry(self):
        cache = ResultCache(ttl=5.0)
        key = normalize_key(("a",), 3)
        cache.put(key, [answer(0.9)], now=0.0)
        assert cache.get(key, now=5.0) is not None     # exactly at ttl: fresh
        assert cache.get(key, now=10.1) is None        # past ttl: expired
        assert cache.stats.expirations == 1
        assert key not in cache

    def test_purge_expired(self):
        cache = ResultCache(ttl=5.0)
        cache.put(normalize_key(("a",), 1), [], now=0.0)
        cache.put(normalize_key(("b",), 1), [], now=8.0)
        assert cache.purge_expired(now=9.0) == 1
        assert len(cache) == 1

    def test_lru_capacity_eviction(self):
        cache = ResultCache(ttl=100.0, capacity=2)
        k1, k2, k3 = (normalize_key((w,), 1) for w in ("a", "b", "c"))
        cache.put(k1, [], now=0.0)
        cache.put(k2, [], now=1.0)
        assert cache.get(k1, now=2.0) is not None      # k1 now most recent
        cache.put(k3, [], now=3.0)                     # evicts LRU == k2
        assert k2 not in cache
        assert k1 in cache and k3 in cache
        assert cache.stats.evictions == 1

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ResultCache(ttl=0.0)
        with pytest.raises(ValueError):
            ResultCache(capacity=0)

    def test_capacity_pressure_purges_expired_before_evicting(self):
        """PR 3 regression: a full cache drops *stale* entries first --
        a live entry must never be evicted while an expired one sits
        resident, and the drop is ledgered as an expiration."""
        cache = ResultCache(ttl=5.0, capacity=2)
        k1, k2, k3 = (normalize_key((w,), 1) for w in ("a", "b", "c"))
        cache.put(k1, [], now=0.0)          # will be expired at t=7
        cache.put(k2, [], now=6.0)          # live at t=7
        cache.put(k3, [], now=7.0)          # over capacity: k1 is stale
        assert k1 not in cache
        assert k2 in cache and k3 in cache  # the live LRU entry survived
        assert cache.stats.expirations == 1
        assert cache.stats.evictions == 0

    def test_capacity_pressure_evicts_lru_when_all_live(self):
        cache = ResultCache(ttl=100.0, capacity=2)
        k1, k2, k3 = (normalize_key((w,), 1) for w in ("a", "b", "c"))
        cache.put(k1, [], now=0.0)
        cache.put(k2, [], now=1.0)
        cache.put(k3, [], now=2.0)
        assert k1 not in cache
        assert cache.stats.evictions == 1
        assert cache.stats.expirations == 0


class TestAdmissionController:
    def test_accepts_under_budget(self):
        ctl = AdmissionController(max_in_flight=2)
        assert ctl.decide(in_flight=1).admitted

    def test_rejects_at_in_flight_budget(self):
        ctl = AdmissionController(max_in_flight=2)
        decision = ctl.decide(in_flight=2)
        assert decision.action == "reject"
        assert "in-flight" in decision.reason
        assert ctl.rejected == 1

    def test_defer_policy(self):
        ctl = AdmissionController(max_in_flight=1, policy="defer")
        assert ctl.decide(in_flight=5).action == "defer"
        assert ctl.deferred == 1

    def test_unbounded_by_default(self):
        ctl = AdmissionController()
        assert ctl.decide(in_flight=10**6).admitted

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            AdmissionController(policy="drop")


class TestLoadGen:
    def test_deterministic(self, fed, index):
        config = LoadConfig(n_queries=40, seed=9)
        a = generate_load(fed, config, index=index)
        b = generate_load(fed, config, index=index)
        assert [(q.kq_id, q.keywords, q.arrival) for q in a] == \
            [(q.kq_id, q.keywords, q.arrival) for q in b]

    def test_arrivals_nondecreasing_open_loop(self):
        times = generate_arrivals(LoadConfig(n_queries=100, rate_qps=5.0))
        assert times[0] == 0.0
        assert all(b >= a for a, b in zip(times, times[1:]))
        # Mean gap should be in the ballpark of 1/rate.
        mean_gap = times[-1] / (len(times) - 1)
        assert 0.05 < mean_gap < 1.0

    def test_templates_distinct(self, fed, index):
        templates = build_templates(index, LoadConfig(n_templates=8))
        assert len({frozenset(t) for t in templates}) == len(templates)

    def test_popularity_skew_recurs(self, fed, index):
        load = generate_load(fed, LoadConfig(n_queries=80, n_templates=10,
                                             seed=3), index=index)
        distinct = {frozenset(q.keywords) for q in load}
        assert len(distinct) <= 10
        assert len(distinct) < len(load)  # the Zipf head recurs

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            LoadConfig(n_queries=0)
        with pytest.raises(ValueError):
            LoadConfig(rate_qps=0.0)


class TestEngineIncrementalAPI:
    """The step/drain refactor the service is built on."""

    def test_step_then_drain_matches_run(self, fed, index):
        svc = make_service(fed, index)
        run_engine = make_service(fed, index).workers[0].engine
        queries = [
            KeywordQuery("KQ1", ("protein", "plasma membrane"), k=K,
                         arrival=0.0),
            KeywordQuery("KQ2", ("membrane", "gene"), k=K, arrival=2.0),
        ]
        stepped = svc.workers[0].engine
        for kq in queries:
            stepped.submit(kq)
            run_engine.submit(kq)
        stepped.step(1.0)
        stepped.step(3.0)
        stepped.drain()
        stepped_answers = {t.uq_id: t.answers
                           for t in stepped.take_terminals()}
        report_b = run_engine.run()
        for kq in queries:
            got = [a.score for a in stepped_answers[kq.kq_id]]
            want = [a.score for a in report_b.answers[kq.kq_id]]
            assert got == pytest.approx(want)

    def test_run_twice_returns_cumulative_report(self, fed, index):
        """Metrics and records are cumulative; answers are handed over
        once, by the call that finished their query."""
        engine = make_service(fed, index).workers[0].engine
        engine.submit(KeywordQuery("KQ1", ("protein", "plasma membrane"),
                                   k=K, arrival=0.0))
        first = engine.run()
        second = engine.run()
        assert set(first.answers) == {"KQ1"}
        assert second.answers == {}
        assert set(second.metrics.uq_records) == \
            set(first.metrics.uq_records)
        assert second.latencies() == first.latencies()

    def test_submit_between_runs_grafts_incrementally(self, fed, index):
        engine = make_service(fed, index).workers[0].engine
        uq1 = engine.submit(KeywordQuery(
            "KQ1", ("protein", "plasma membrane"), k=K, arrival=0.0))
        first = engine.run()
        uq2 = engine.submit(KeywordQuery(
            "KQ2", ("membrane", "gene"), k=K, arrival=40.0))
        second = engine.run()
        assert set(first.answers) == {"KQ1"}
        assert set(second.answers) == {"KQ2"}
        assert set(second.metrics.uq_records) == {"KQ1", "KQ2"}
        for uq, report in ((uq1, first), (uq2, second)):
            got = [a.score for a in report.answers[uq.uq_id]]
            assert got == pytest.approx(topk_scores(fed, uq))

    def test_in_flight_and_virtual_now(self, fed, index):
        engine = make_service(fed, index).workers[0].engine
        assert engine.in_flight() == []
        assert engine.virtual_now() == 0.0
        engine.submit(KeywordQuery("KQ1", ("protein", "plasma membrane"),
                                   k=K, arrival=0.0))
        engine.step(engine.config.batch_window + 0.1)
        assert engine.virtual_now() > 0.0
        engine.drain()
        assert engine.in_flight() == []


class TestQServiceInterleaving:
    def test_submit_while_running(self, fed, index):
        """A second query is admitted while the first is mid-execution,
        and both still return the exact brute-force top-k."""
        svc = make_service(fed, index)
        t1 = svc.submit(KeywordQuery("KQ1", ("protein", "plasma membrane"),
                                     k=K, arrival=0.0))
        # Nudge time past the batch window so KQ1 is dispatched and
        # starts executing, but nowhere near completion.
        svc.step(2.1)
        assert svc.workers[0].engine.in_flight() == ["KQ1"]
        t2 = svc.submit(KeywordQuery("KQ2", ("membrane", "gene"), k=K,
                                     arrival=2.5))
        assert t2.status in ("in-flight", "pending")
        svc.drain()
        assert t1.done and t2.done
        for ticket in (t1, t2):
            uq = svc.workers[0].engine.generator.generate(
                KeywordQuery(ticket.kq_id, ticket.keywords, k=K))
            got = [a.score for a in ticket.answers]
            assert got == pytest.approx(topk_scores(fed, uq))
        assert t2.via == "engine"
        assert svc.report().telemetry.completed == 2

    def test_repeat_query_hits_cache(self, fed, index):
        svc = make_service(fed, index)
        t1 = svc.submit(KeywordQuery("KQ1", ("protein", "plasma membrane"),
                                     k=K, arrival=0.0))
        svc.drain()
        assert t1.via == "engine"
        at = svc.workers[0].engine.virtual_now() + 1.0
        t2 = svc.submit(KeywordQuery("KQ1b", ("plasma membrane", "Protein"),
                                     k=K, arrival=at))
        assert t2.done and t2.via == "cache"
        assert [a.score for a in t2.answers] == \
            [a.score for a in t1.answers]
        assert t2.latency == 0.0
        assert svc.cache.stats.hits == 1

    def test_cache_ttl_expiry_recomputes(self, fed, index):
        svc = make_service(fed, index, service=ServiceConfig(cache_ttl=5.0))
        svc.submit(KeywordQuery("KQ1", ("protein", "plasma membrane"), k=K,
                                arrival=0.0))
        svc.drain()
        late = svc.workers[0].engine.virtual_now() + 100.0   # past the TTL
        t2 = svc.submit(KeywordQuery("KQ2", ("protein", "plasma membrane"),
                                     k=K, arrival=late))
        assert t2.via != "cache"
        svc.drain()
        assert t2.done and t2.via == "engine"
        assert svc.cache.stats.expirations >= 1

    def test_drain_requests_engine_report_once(self, fed, index,
                                               monkeypatch):
        """PR 3 regression: the service's drain loop no longer builds
        (and discards) a full cumulative engine report per iteration;
        the one report is built by ``report()`` on request."""
        svc = make_service(fed, index)
        calls = []
        engine = svc.workers[0].engine
        original = type(engine).report

        def counting(engine_self):
            calls.append(1)
            return original(engine_self)

        monkeypatch.setattr(type(engine), "report", counting)
        svc.submit(KeywordQuery("KQ1", ("protein", "plasma membrane"),
                                k=K, arrival=0.0))
        svc.submit(KeywordQuery("KQ2", ("membrane", "gene"), k=K,
                                arrival=0.5))
        assert engine.drain() is None   # drain is now report-free
        report = svc.drain()
        assert report.engine_report is not None
        assert len(calls) == 1

    def test_identical_in_flight_query_coalesces(self, fed, index):
        svc = make_service(fed, index)
        t1 = svc.submit(KeywordQuery("KQ1", ("protein", "plasma membrane"),
                                     k=K, arrival=0.0))
        svc.step(2.1)   # dispatched, running
        t2 = svc.submit(KeywordQuery("KQ2", ("protein", "plasma membrane"),
                                     k=K, arrival=2.5))
        assert t2.via == "coalesced"
        svc.drain()
        assert t1.done and t2.done
        assert [a.score for a in t2.answers] == \
            [a.score for a in t1.answers]
        # The follower arrived later, so it waited strictly less.
        assert t2.latency < t1.latency
        assert svc.report().telemetry.coalesced == 1

    def test_unmatchable_keywords_served_empty(self, fed, index):
        svc = make_service(fed, index)
        ticket = svc.submit(KeywordQuery("KQX", ("zzzznothing",), k=K,
                                         arrival=0.0))
        assert ticket.done and ticket.via == "empty"
        assert ticket.answers == []
        assert svc.report().telemetry.no_results == 1


class TestQServiceAdmission:
    def test_rejects_over_in_flight_budget(self, fed, index):
        svc = make_service(
            fed, index,
            service=ServiceConfig(max_in_flight=1, coalesce=False))
        t1 = svc.submit(KeywordQuery("KQ1", ("protein", "plasma membrane"),
                                     k=K, arrival=0.0))
        svc.step(2.1)
        t2 = svc.submit(KeywordQuery("KQ2", ("membrane", "gene"), k=K,
                                     arrival=2.2))
        assert t2.status == "rejected"
        assert "budget" in t2.reason
        report = svc.drain()
        assert t1.done and not t2.done
        assert report.telemetry.rejected == 1
        assert report.admission_stats["rejected"] == 1

    def test_defer_policy_serves_everyone_eventually(self, fed, index):
        svc = make_service(
            fed, index,
            service=ServiceConfig(max_in_flight=1, coalesce=False,
                                  admission_policy="defer"))
        tickets = [
            svc.submit(KeywordQuery(f"KQ{i}", keywords, k=K, arrival=0.5 * i))
            for i, keywords in enumerate([
                ("protein", "plasma membrane"),
                ("membrane", "gene"),
                ("plasma membrane", "gene"),
            ])
        ]
        assert any(t.status == "deferred" for t in tickets)
        report = svc.drain()
        assert all(t.done for t in tickets)
        assert report.telemetry.deferred >= 1
        # Deferred queries were answered correctly, just later.
        for ticket in tickets:
            assert ticket.answers, ticket
            scores = [a.score for a in ticket.answers]
            assert scores == sorted(scores, reverse=True)

    def test_retries_do_not_inflate_decision_counters(self, fed, index):
        """Parked queries are re-checked every step; the admission
        counters must still count each query's first decision once."""
        svc = make_service(
            fed, index,
            service=ServiceConfig(max_in_flight=1, coalesce=False,
                                  admission_policy="defer"))
        keywords = [("protein", "plasma membrane"), ("membrane", "gene"),
                    ("plasma membrane", "gene")]
        for i, kws in enumerate(keywords):
            svc.submit(KeywordQuery(f"KQ{i}", kws, k=K, arrival=0.2 * i))
        # Many extra steps, each of which retries the parked queries.
        for j in range(10):
            svc.step(1.0 + 0.1 * j)
        svc.drain()
        stats = svc.workers[0].admission.snapshot()
        assert stats["accepted"] + stats["deferred"] == len(keywords)
        assert stats["deferred"] <= len(keywords) - 1

    def test_dispositions_partition_submissions(self, fed, index):
        """After drain every handle is terminal and completed +
        rejected == submitted: parked queries are admitted as the
        in-flight gauge frees, never left behind."""
        svc = make_service(
            fed, index,
            service=ServiceConfig(max_in_flight=1, coalesce=False,
                                  admission_policy="defer"))
        keywords = [("protein", "plasma membrane"), ("membrane", "gene"),
                    ("plasma membrane", "gene")]
        handles = [svc.submit(KeywordQuery(f"KQ{i}", kws, k=K,
                                           arrival=0.1 * i))
                   for i, kws in enumerate(keywords)]
        assert [h.status for h in handles[1:]] == ["deferred", "deferred"]
        tel = svc.drain().telemetry
        assert all(h.terminal for h in handles)
        assert tel.completed + tel.rejected == tel.submitted == 3
        assert tel.deferred == 2   # each parked query counted once

    def test_deferred_twin_served_from_cache_on_retry(self, fed, index):
        """A deferred duplicate whose twin completes while it is parked
        must be served from the cache, not re-executed."""
        svc = make_service(
            fed, index,
            service=ServiceConfig(max_in_flight=1, coalesce=False,
                                  admission_policy="defer"))
        t1 = svc.submit(KeywordQuery("KQ1", ("protein", "plasma membrane"),
                                     k=K, arrival=0.0))
        svc.step(2.1)   # t1 dispatched and running
        t2 = svc.submit(KeywordQuery("KQ2", ("protein", "plasma membrane"),
                                     k=K, arrival=2.2))
        assert t2.status == "deferred"
        svc.drain()
        assert t1.via == "engine" and t2.via == "cache"
        assert [a.score for a in t2.answers] == \
            [a.score for a in t1.answers]


class TestQServiceUnderLoad:
    def test_open_loop_stream_all_served(self, fed, index):
        load = generate_load(fed, LoadConfig(n_queries=40, rate_qps=4.0,
                                             k=K, n_templates=6,
                                             vocabulary_size=12, seed=5),
                             index=index)
        svc = make_service(fed, index)
        report = svc.run(load)
        tel = report.telemetry
        assert tel.submitted == 40
        assert tel.completed == 40
        assert tel.served_from_cache > 0          # the Zipf head paid off
        assert report.cache_hit_rate > 0.0
        assert tel.throughput() > 0.0
        pcts = tel.latency_percentiles()
        assert 0.0 <= pcts["p50"] <= pcts["p95"] <= pcts["p99"]
        assert all(t.done for t in report.tickets)

    def test_eviction_under_sustained_load(self, fed, index):
        """A tight memory budget must be enforced while load is in
        progress, not only at end-of-run."""
        load = generate_load(fed, LoadConfig(n_queries=25, rate_qps=4.0,
                                             k=K, n_templates=8,
                                             vocabulary_size=12, seed=5),
                             index=index)
        svc = make_service(fed, index, memory_budget_tuples=60)
        report = svc.run(load)
        assert report.telemetry.completed == 25
        assert report.engine_report.metrics.evictions > 0

    def test_modes_share_identical_arrival_stream(self, fed, index):
        load = generate_load(fed, LoadConfig(n_queries=15, rate_qps=4.0,
                                             k=K, n_templates=5,
                                             vocabulary_size=12, seed=5),
                             index=index)
        answers = {}
        for mode in (SharingMode.ATC_CQ, SharingMode.ATC_FULL):
            svc = make_service(fed, index, mode=mode)
            report = svc.run(load)
            assert report.telemetry.completed == 15
            answers[mode] = {
                t.kq_id: [a.score for a in t.answers]
                for t in report.tickets
            }
        # Sharing changes cost, never answers.
        for kq_id, scores in answers[SharingMode.ATC_CQ].items():
            assert answers[SharingMode.ATC_FULL][kq_id] == \
                pytest.approx(scores)


class TestNothingLeftBehind:
    """Memory follows the plan graph, not the queries served: a
    finished query leaves no engine table behind, whichever driver
    took its terminal record, and once the graph has settled, serving
    more queries adds only their handles and records."""

    ROUNDS = 5
    #: Rounds 0-1 grow the plan graph; 2-4 are measured.
    MEASURED = range(2, 5)

    @staticmethod
    def per_query_tables(engine) -> dict[str, int]:
        qs = engine.qs
        return {
            "uq_graphs": len(qs.uq_graphs),
            "rank_merges": sum(len(g.rank_merges)
                               for g in qs.graphs.values()),
            "cq_plans": sum(len(p) for p in qs.cq_plans.values()),
            "deadlines": len(engine._deadlines),
            "outbox": len(qs.outbox),
        }

    def assert_bounded(self, index, serve) -> None:
        """Call ``serve(query_id, keywords)`` for every keyword pair of
        the corpus's first six terms, ``ROUNDS`` times over, and bound
        the growth per query over the measured rounds."""
        pairs = list(itertools.combinations(index.vocabulary()[:6], 2))
        assert len(pairs) == 15
        # Traced from the start: a block allocated before tracing began
        # is not subtracted when it is freed, so a later start would
        # count every container that merely grew in full.
        tracemalloc.start()
        try:
            for round_ in range(self.ROUNDS):
                if round_ == self.MEASURED.start:
                    gc.collect()
                    objects = len(gc.get_objects())
                    traced = tracemalloc.get_traced_memory()[0]
                for i, pair in enumerate(pairs):
                    serve(f"r{round_}q{i}", pair)
            gc.collect()
            traced = tracemalloc.get_traced_memory()[0] - traced
        finally:
            tracemalloc.stop()
        served = len(self.MEASURED) * len(pairs)
        assert (len(gc.get_objects()) - objects) / served < 100
        assert traced / served < 10_000

    def test_repeated_rounds_grow_by_handles_only(self):
        federation = e2e_corpus()
        index = InvertedIndex(federation)
        svc = QService(federation,
                       engine_config(optimizer_time_scale=0.0),
                       ServiceConfig(cache_ttl=1e-9, coalesce=False),
                       index=index)
        empty = dict.fromkeys(self.per_query_tables(svc.workers[0].engine), 0)

        def serve(kq_id, pair):
            handle = svc.submit(KeywordQuery(kq_id, pair, k=K))
            svc.drain()
            assert handle.done and handle.via == "engine"
            assert self.per_query_tables(svc.workers[0].engine) == empty

        self.assert_bounded(index, serve)

    def test_run_driver_grows_by_records_only(self):
        federation = e2e_corpus()
        index = InvertedIndex(federation)
        engine = QSystemEngine(federation,
                               engine_config(optimizer_time_scale=0.0),
                               index=index)
        empty = dict.fromkeys(self.per_query_tables(engine), 0)

        def serve(kq_id, pair):
            engine.submit(KeywordQuery(kq_id, pair, k=K,
                                       arrival=engine.virtual_now()))
            report = engine.run()
            assert list(report.answers) == [kq_id]
            assert len(report.answers[kq_id]) == K
            assert self.per_query_tables(engine) == empty

        self.assert_bounded(index, serve)


class TestServeCLI:
    def test_serve_prints_telemetry(self, capsys):
        exit_code = main([
            "serve", "--queries", "25", "--rate", "4", "--seed", "3",
            "--mode", "ATC-FULL",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        for token in ("p50", "p95", "p99", "throughput", "hit rate"):
            assert token in out

    def test_serve_defer_policy(self, capsys):
        exit_code = main([
            "serve", "--queries", "12", "--rate", "20", "--seed", "3",
            "--max-in-flight", "2", "--policy", "defer",
        ])
        assert exit_code == 0
        assert "deferred" in capsys.readouterr().out
