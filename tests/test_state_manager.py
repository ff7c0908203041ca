"""Tests for the QS manager: grafting, recovery, unlinking, eviction."""

import pytest

from repro.atc.controller import ATCController
from repro.atc.state_manager import QueryStateManager
from repro.common.config import DelayModel, ExecutionConfig, SharingMode
from repro.keyword.queries import UserQuery
from repro.operators.rankmerge import RankMerge
from repro.optimizer.bestplan import BestPlanSearch
from repro.optimizer.candidates import enumerate_candidates, streamable_aliases
from repro.optimizer.cost import CostModel
from repro.optimizer.factorize import factorize
from repro.obs import UQRecord

from tests.conftest import abc_expr, load_triple_federation, make_cq

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

    def test_orphan_nodes_detached_with_state(self, qs, fed):
        graph = qs.get_or_create_graph("main")
        uq = UserQuery("u1", ("kw",),
                       [make_cq(abc_expr(), fed, "c1", "u1")], k=3)
        run_uq(qs, fed, uq, graph)
        assert graph.detached  # the final m-join has no consumers left
        for node_id in graph.detached:
            assert graph.nodes[node_id].module.size >= 0  # state kept

    def test_detached_node_revived_for_new_query(self, qs, fed):
        graph = qs.get_or_create_graph("main")
        uq1 = UserQuery("u1", ("kw",),
                        [make_cq(abc_expr(), fed, "c1", "u1")], k=3)
        run_uq(qs, fed, uq1, graph)
        detached_before = set(graph.detached)
        uq2 = UserQuery("u2", ("kw",),
                        [make_cq(abc_expr(), fed, "c2", "u2")], k=3)
        rm2 = run_uq(qs, fed, uq2, graph)
        assert rm2.complete
        assert detached_before  # something was revived or replayed


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

    def test_pinned_unit_survives(self, fed):
        config = CONFIG.with_overrides(memory_budget_tuples=1)
        qs = QueryStateManager(fed, config)
        graph = qs.get_or_create_graph("main")
        uq = UserQuery("u1", ("kw",),
                       [make_cq(abc_expr(), fed, "c1", "u1")], k=3)
        plan = build_plan(fed, uq.cqs)
        qs.register_plan(graph, plan, [uq])
        graph.metrics.record_uq(UQRecord("u1", 0.0, 0.0))
        ATCController(graph, qs).run_until(None)
        for unit in graph.units.values():
            unit.pinned = True
        sizes = {
            unit_id: unit.module.size
            for unit_id, unit in graph.units.items()
        }
        qs.enforce_budget(graph)
        for unit_id, unit in graph.units.items():
            assert unit.module.size == sizes[unit_id]

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

    def test_pin_marks_unit(self, qs, fed):
        graph = qs.get_or_create_graph("main")
        uq = UserQuery("u1", ("kw",),
                       [make_cq(abc_expr(), fed, "c1", "u1")], k=3)
        run_uq(qs, fed, uq, graph)
        oracle = qs.oracle_for(graph)
        unit = next(iter(graph.units.values()))
        oracle.pin(unit.expr)
        assert unit.pinned
        qs.unpin_all(graph)
        assert not unit.pinned
