"""Tests for the QS manager: grafting, recovery, unlinking, eviction."""

import itertools
import sys

import pytest

from repro.atc.controller import ATCController
from repro.atc.engine import QSystemEngine
from repro.atc.state_manager import QueryStateManager
from repro.common.config import DelayModel, ExecutionConfig, SharingMode
from repro.data.inverted import InvertedIndex
from repro.keyword.queries import KeywordQuery, UserQuery
from repro.operators.rankmerge import RankMerge
from repro.optimizer.bestplan import BestPlanSearch
from repro.optimizer.candidates import enumerate_candidates, streamable_aliases
from repro.optimizer.cost import CostModel
from repro.optimizer.factorize import (
    ComponentSpec,
    FactorizedPlan,
    SourceSpec,
    factorize,
)
from repro.obs import UQRecord
from repro.plan.expressions import SPJ, Atom, JoinPred
from repro.reference import evaluate_spj

from tests.conftest import (
    abc_expr,
    e2e_corpus,
    load_triple_federation,
    make_cq,
)

CONFIG = ExecutionConfig(
    k=3, seed=1, tau_probe_threshold=2,
    delays=DelayModel(deterministic=True),
    mode=SharingMode.ATC_FULL,
)


@pytest.fixture()
def fed():
    return load_triple_federation()


@pytest.fixture()
def qs(fed):
    return QueryStateManager(fed, CONFIG)


def build_plan(fed, cqs, scope="g", sharing=True):
    cost = CostModel(fed, CONFIG)
    candidates = enumerate_candidates(cqs, fed, cost, CONFIG,
                                      sharing=sharing)
    streamable = {
        cq.cq_id: streamable_aliases(cq, fed, CONFIG) for cq in cqs
    }
    result = BestPlanSearch(
        cqs=cqs, candidates=candidates, cost_model=cost, config=CONFIG,
        streamable=streamable,
    ).run()
    return factorize(result, cqs, cost, scope, sharing=sharing)


def run_uq(qs, fed, uq, graph):
    plan = build_plan(fed, uq.cqs)
    qs.register_plan(graph, plan, [uq])
    graph.metrics.record_uq(UQRecord(uq.uq_id, uq.arrival,
                                     graph.clock.now))
    ATCController(graph, qs).run_until(None)
    return graph.rank_merges[uq.uq_id]


class TestGraphRouting:
    def test_full_mode_single_graph(self, qs, fed):
        uq = UserQuery("u1", ("kw",), [make_cq(abc_expr(), fed, "c1", "u1")])
        assert qs.graph_id_for(uq) == "main"

    def test_cq_mode_shares_the_single_middleware_graph(self, fed):
        # ATC-CQ disables sharing but still schedules through the one
        # middleware ATC -- only ATC-CL multiplies graphs.
        qs = QueryStateManager(fed, CONFIG.with_mode(SharingMode.ATC_CQ))
        uq = UserQuery("u1", ("kw",), [make_cq(abc_expr(), fed, "c1", "u1")])
        assert qs.graph_id_for(uq) == "main"

    def test_cl_mode_clusters(self, fed):
        qs = QueryStateManager(fed, CONFIG.with_mode(SharingMode.ATC_CL))
        uq1 = UserQuery("u1", ("kw",), [make_cq(abc_expr(), fed, "c1", "u1")])
        uq2 = UserQuery("u2", ("kw",), [make_cq(abc_expr(), fed, "c2", "u2")])
        g1 = qs.graph_id_for(uq1)
        g2 = qs.graph_id_for(uq2)
        assert g1 == g2  # identical footprints cluster together

    def test_get_or_create_graph_idempotent(self, qs):
        g1 = qs.get_or_create_graph("main")
        g2 = qs.get_or_create_graph("main")
        assert g1 is g2


class TestExecutionAndReuse:
    def test_single_query_completes(self, qs, fed):
        cq = make_cq(abc_expr(), fed, "c1", "u1")
        uq = UserQuery("u1", ("kw",), [cq], k=3)
        graph = qs.get_or_create_graph("main")
        rm = run_uq(qs, fed, uq, graph)
        assert rm.complete
        assert len(rm.emitted) == 3

    def test_second_identical_query_reuses_stream(self, qs, fed):
        graph = qs.get_or_create_graph("main")
        uq1 = UserQuery("u1", ("kw",),
                        [make_cq(abc_expr(), fed, "c1", "u1")], k=3)
        run_uq(qs, fed, uq1, graph)
        reads_after_first = graph.metrics.stream_tuples_read
        uq2 = UserQuery("u2", ("kw",),
                        [make_cq(abc_expr(), fed, "c2", "u2")], k=3)
        rm2 = run_uq(qs, fed, uq2, graph)
        assert rm2.complete
        assert len(rm2.emitted) == 3
        # the second query reuses buffered state: few or no new reads
        new_reads = graph.metrics.stream_tuples_read - reads_after_first
        assert new_reads <= reads_after_first

    def test_recovery_stream_registered_on_reuse(self, qs, fed):
        graph = qs.get_or_create_graph("main")
        uq1 = UserQuery("u1", ("kw",),
                        [make_cq(abc_expr(), fed, "c1", "u1")], k=3)
        run_uq(qs, fed, uq1, graph)
        uq2 = UserQuery("u2", ("kw",),
                        [make_cq(abc_expr(), fed, "c2", "u2")], k=3)
        rm2 = run_uq(qs, fed, uq2, graph)
        kinds = {e.kind for e in rm2.entries.values()}
        assert "recovery" in kinds
        assert graph.metrics.recovery_queries >= 1

    def test_second_query_results_identical(self, qs, fed):
        graph = qs.get_or_create_graph("main")
        uq1 = UserQuery("u1", ("kw",),
                        [make_cq(abc_expr(), fed, "c1", "u1")], k=3)
        rm1 = run_uq(qs, fed, uq1, graph)
        uq2 = UserQuery("u2", ("kw",),
                        [make_cq(abc_expr(), fed, "c2", "u2")], k=3)
        rm2 = run_uq(qs, fed, uq2, graph)
        assert [c.score for c in rm1.emitted] \
            == pytest.approx([c.score for c in rm2.emitted])

    def test_epoch_increments_per_activation(self, qs, fed):
        graph = qs.get_or_create_graph("main")
        uq = UserQuery("u1", ("kw",),
                       [make_cq(abc_expr(), fed, "c1", "u1")], k=3)
        run_uq(qs, fed, uq, graph)
        assert graph.epoch >= 1


class TestUnlinking:
    def test_completed_query_unlinked(self, qs, fed):
        graph = qs.get_or_create_graph("main")
        uq = UserQuery("u1", ("kw",),
                       [make_cq(abc_expr(), fed, "c1", "u1")], k=3)
        rm = run_uq(qs, fed, uq, graph)
        for entry in rm.entries.values():
            assert all(
                getattr(c, "merge", None) is not rm
                for c in entry.supplier.consumers
            )

    def test_unlinked_mjoins_leave_the_graph(self, qs, fed):
        graph = qs.get_or_create_graph("main")
        uq = UserQuery("u1", ("kw",),
                       [make_cq(abc_expr(), fed, "c1", "u1")], k=3)
        run_uq(qs, fed, uq, graph)
        assert not graph.nodes  # no m-join has a consumer left
        assert graph.units
        assert all(unit.module.size for unit in graph.units.values())

    def test_distinct_traffic_leaves_only_inputs_and_caches(self):
        """Once every query is served, no m-join is left: the graph's
        state is its input modules and probe caches."""
        federation = e2e_corpus()
        index = InvertedIndex(federation)
        engine = QSystemEngine(federation, CONFIG.with_overrides(
            k=8, batch_window=2.0, optimizer_time_scale=0.0), index=index)
        pairs = list(itertools.combinations(index.vocabulary()[:6], 2))
        assert len(pairs) == 15
        for round_ in range(2):
            for i, pair in enumerate(pairs):
                engine.submit(KeywordQuery(f"r{round_}q{i}", pair, k=8,
                                           arrival=engine.virtual_now()))
                assert len(engine.run().answers[f"r{round_}q{i}"]) == 8
        for graph in engine.qs.graphs.values():
            assert not graph.nodes
            assert graph.state_size() == (
                sum(u.module.size for u in graph.units.values())
                + sum(s.cache_size for s in graph.ra_sources.values()))

    def test_unlinked_mjoin_regrafted_for_new_query(self, qs, fed):
        graph = qs.get_or_create_graph("main")
        finals = []
        emitted = []
        for n in (1, 2):
            uq = UserQuery(f"u{n}", ("kw",),
                           [make_cq(abc_expr(), fed, f"c{n}", f"u{n}")], k=3)
            rm = run_uq(qs, fed, uq, graph)
            assert rm.complete
            (final,) = [e.supplier for e in rm.entries.values()
                        if e.kind == "live"]
            finals.append(final)
            emitted.append([(c.score, c.answer.provenance)
                            for c in rm.emitted])
        assert finals[0].name == finals[1].name
        assert finals[0] is not finals[1]
        assert emitted[0] == emitted[1]


def chain_plan(fed):
    """A hand-built plan: ``ab`` joins stream A with B probed remotely,
    and ``abc`` joins ``ab`` with stream C.  Both seeds stay pending
    until a parent grafts over their node."""
    ab = SPJ([Atom("A", "A"), Atom("B", "B")],
             [JoinPred.normalized("A", "x", "B", "x")])
    plan = FactorizedPlan("g")
    for alias in ("A", "C"):
        plan.sources[f"s:g:{alias}"] = SourceSpec(
            f"s:g:{alias}", SPJ([Atom(alias, alias)]), (alias,))
    plan.components["c:g:ab"] = ComponentSpec(
        "c:g:ab", ab, ("s:g:A",), ("B",), ("ab",))
    plan.components["c:g:abc"] = ComponentSpec(
        "c:g:abc", abc_expr(), ("c:g:ab", "s:g:C"), (), ("abc",))
    return plan


class TestRankedRecovery:
    """A pending seed runs into its node's module before the node is
    read as a supplier by a new parent -- also one re-grafted over it."""

    @staticmethod
    def stored_units(qs, graph, plan):
        for unit_id in ("s:g:A", "s:g:C"):
            unit = qs.ensure_node(graph, unit_id, plan)
            while unit.read_and_route(graph.epoch) is not None:
                pass

    @staticmethod
    def assert_complete(fed, graph):
        """The parent's graft ran the child's seed into the child's
        module; the parent's own seed, over two stream suppliers, is
        still pending and holds the whole join."""
        ab, abc = graph.nodes["c:g:ab"], graph.nodes["c:g:abc"]
        assert ab.seed is None
        assert set(ab.module.replay()) == set(evaluate_spj(fed, ab.expr))
        assert abc.module.size == 0
        abc.seed.result(sys.maxsize)
        assert set(abc.seed.emitted) == set(evaluate_spj(fed, abc.expr))
        assert len(abc.seed.emitted) == len(evaluate_spj(fed, abc.expr))

    def test_graft_seed_pends_on_one_stream_supplier(self, qs, fed):
        graph = qs.get_or_create_graph("main")
        plan = chain_plan(fed)
        self.stored_units(qs, graph, plan)
        ab = qs.ensure_node(graph, "c:g:ab", plan)
        assert ab.seed is not None
        assert ab.module.size == 0

    def test_new_parent_materializes_child_seed(self, qs, fed):
        graph = qs.get_or_create_graph("main")
        plan = chain_plan(fed)
        self.stored_units(qs, graph, plan)
        qs.ensure_node(graph, "c:g:ab", plan)
        qs.ensure_node(graph, "c:g:abc", plan)
        self.assert_complete(fed, graph)

    def test_parent_revival_materializes_child_seed(self, qs, fed):
        graph = qs.get_or_create_graph("main")
        plan = chain_plan(fed)
        self.stored_units(qs, graph, plan)
        abc = qs.ensure_node(graph, "c:g:abc", plan)
        qs._detach_if_orphan(graph, abc)
        assert not graph.nodes
        # The child is grafted on its own first, as some CQ's final
        # node: its seed pends.  Then the parent is grafted over it.
        ab = qs.ensure_node(graph, "c:g:ab", plan)
        assert ab.seed is not None
        assert qs.ensure_node(graph, "c:g:abc", plan) is not abc
        self.assert_complete(fed, graph)

    def test_recovery_stream_merges_snapshot_and_seed(self, qs, fed):
        graph = qs.get_or_create_graph("main")
        plan = chain_plan(fed)
        self.stored_units(qs, graph, plan)
        cq = make_cq(plan.components["c:g:ab"].expr, fed, "c1", "u1")
        plan.cq_final["c1"] = "c:g:ab"
        uq = UserQuery("u1", ("kw",), [cq], k=3)
        qs.register_plan(graph, plan, [uq])
        rm = graph.rank_merges["u1"]
        qs.activate(graph, rm, cq)
        (recovery,) = [e.supplier for e in rm.entries.values()
                       if e.kind == "recovery"]
        ab = graph.nodes["c:g:ab"]
        assert recovery.seed is ab.seed is not None
        read = []
        while (tup := recovery.read_and_route(graph.epoch)) is not None:
            read.append(tup)
        assert set(read) == set(evaluate_spj(fed, ab.expr))


class TestEviction:
    def test_budget_enforced(self, fed):
        config = CONFIG.with_overrides(memory_budget_tuples=5)
        qs = QueryStateManager(fed, config)
        graph = qs.get_or_create_graph("main")
        uq = UserQuery("u1", ("kw",),
                       [make_cq(abc_expr(), fed, "c1", "u1")], k=3)
        plan = build_plan(fed, uq.cqs)
        qs.register_plan(graph, plan, [uq])
        graph.metrics.record_uq(UQRecord("u1", 0.0, 0.0))
        ATCController(graph, qs).run_until(None)
        qs.enforce_budget(graph)
        assert graph.state_size() <= 5 or graph.metrics.evictions > 0

    def test_no_budget_no_eviction(self, qs, fed):
        graph = qs.get_or_create_graph("main")
        uq = UserQuery("u1", ("kw",),
                       [make_cq(abc_expr(), fed, "c1", "u1")], k=3)
        run_uq(qs, fed, uq, graph)
        assert qs.enforce_budget(graph) == 0
        assert graph.metrics.evictions == 0

    def test_correctness_after_eviction(self, fed):
        """A query repeated after eviction must still return the right
        answers (state is re-streamed, not assumed)."""
        config = CONFIG.with_overrides(memory_budget_tuples=1)
        qs = QueryStateManager(fed, config)
        graph = qs.get_or_create_graph("main")
        uq1 = UserQuery("u1", ("kw",),
                        [make_cq(abc_expr(), fed, "c1", "u1")], k=3)
        rm1 = run_uq(qs, fed, uq1, graph)
        qs.enforce_budget(graph)
        uq2 = UserQuery("u2", ("kw",),
                        [make_cq(abc_expr(), fed, "c2", "u2")], k=3)
        rm2 = run_uq(qs, fed, uq2, graph)
        assert [c.score for c in rm2.emitted] \
            == pytest.approx([c.score for c in rm1.emitted])


class TestReuseOracle:
    def test_oracle_reports_reads(self, qs, fed):
        graph = qs.get_or_create_graph("main")
        uq = UserQuery("u1", ("kw",),
                       [make_cq(abc_expr(), fed, "c1", "u1")], k=3)
        run_uq(qs, fed, uq, graph)
        oracle = qs.oracle_for(graph)
        total = sum(
            oracle.tuples_already_read(unit.expr)
            for unit in graph.units.values()
        )
        assert total > 0

    def test_oracle_unknown_expr_zero(self, qs, fed):
        graph = qs.get_or_create_graph("main")
        oracle = qs.oracle_for(graph)
        assert oracle.tuples_already_read(abc_expr()) == 0
