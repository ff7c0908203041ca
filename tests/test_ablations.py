"""Tests for the ablation flags and driver."""

import pytest

from repro.common.config import DelayModel, ExecutionConfig, SharingMode
from repro.common.clock import VirtualClock
from repro.common.rng import make_rng
from repro.data.sources import RandomAccessSource
from repro.obs import Metrics

from tests.conftest import abc_expr, load_triple_federation, make_cq


class TestConfigFlags:
    def test_defaults(self):
        config = ExecutionConfig()
        assert config.adaptive_probe_ordering
        assert config.probe_caching
        assert config.scheduler == "round_robin"

    def test_bad_scheduler_rejected(self):
        with pytest.raises(ValueError):
            ExecutionConfig(scheduler="lifo")

    def test_priority_scheduler_accepted(self):
        assert ExecutionConfig(scheduler="priority").scheduler == "priority"


class TestProbeCachingFlag:
    def make_source(self, fed, use_cache):
        clock = VirtualClock()
        metrics = Metrics()
        source = RandomAccessSource(
            "ra", "B", fed.database("s1"), clock, metrics,
            DelayModel(deterministic=True), make_rng(0, "x"),
            use_cache=use_cache,
        )
        return source, clock, metrics

    def test_disabled_cache_repays_delay(self):
        fed = load_triple_federation()
        source, clock, metrics = self.make_source(fed, use_cache=False)
        source.probe("x", 2)
        t1 = clock.now
        source.probe("x", 2)
        assert clock.now > t1  # paid again
        assert metrics.probe_cache_hits == 0

    def test_enabled_cache_free_repeat(self):
        fed = load_triple_federation()
        source, clock, metrics = self.make_source(fed, use_cache=True)
        source.probe("x", 2)
        t1 = clock.now
        source.probe("x", 2)
        assert clock.now == t1
        assert metrics.probe_cache_hits == 1


class TestSchedulerAblation:
    def run_mode(self, fed, scheduler):
        from repro.atc.engine import QSystemEngine
        from repro.keyword.queries import UserQuery

        config = ExecutionConfig(
            k=3, seed=1, scheduler=scheduler,
            delays=DelayModel(deterministic=True),
            mode=SharingMode.ATC_FULL,
        )
        engine = QSystemEngine(fed, config)
        for i in range(2):
            uq = UserQuery(f"u{i}", ("kw",),
                           [make_cq(abc_expr(), fed, f"c{i}", f"u{i}")],
                           k=3, arrival=0.0)
            engine.submit_user_query(uq)
        return engine.run()

    def test_both_schedulers_correct(self):
        fed = load_triple_federation()
        rr = self.run_mode(fed, "round_robin")
        pr = self.run_mode(fed, "priority")
        for uq_id in ("u0", "u1"):
            rr_scores = [a.score for a in rr.answers[uq_id]]
            pr_scores = [a.score for a in pr.answers[uq_id]]
            assert rr_scores == pytest.approx(pr_scores)


class TestAdaptiveFlag:
    def test_static_order_still_correct(self):
        from repro.atc.engine import QSystemEngine
        from repro.keyword.queries import UserQuery

        fed = load_triple_federation()
        results = {}
        for adaptive in (True, False):
            config = ExecutionConfig(
                k=3, seed=1, adaptive_probe_ordering=adaptive,
                delays=DelayModel(deterministic=True),
                mode=SharingMode.ATC_FULL,
            )
            engine = QSystemEngine(fed, config)
            uq = UserQuery("u", ("kw",),
                           [make_cq(abc_expr(), fed, "c", "u")],
                           k=3, arrival=0.0)
            engine.submit_user_query(uq)
            report = engine.run()
            results[adaptive] = [a.score for a in report.answers["u"]]
        assert results[True] == pytest.approx(results[False])


class TestAblationDriver:
    def test_variants_defined(self):
        from repro.experiments.ablations import VARIANTS

        assert "priority scheduler" in VARIANTS
        assert "static probe order" in VARIANTS
        assert "no probe caching" in VARIANTS
