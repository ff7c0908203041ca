"""Tests for the PlanGraph container: units, descent, accounting."""

import pytest

from repro.atc.state_manager import QueryStateManager
from repro.common.config import DelayModel, ExecutionConfig, SharingMode
from repro.common.errors import ExecutionError
from repro.keyword.queries import UserQuery
from repro.plan.expressions import SPJ, Atom, JoinPred, Selection
from repro.plan.graph import PlanGraph

from tests.conftest import abc_expr, load_triple_federation, make_cq

CONFIG = ExecutionConfig(k=3, seed=1, delays=DelayModel(deterministic=True),
                         mode=SharingMode.ATC_FULL)


@pytest.fixture()
def fed():
    return load_triple_federation()


@pytest.fixture()
def graph(fed):
    return PlanGraph("g", fed, CONFIG)


class TestUnits:
    def test_create_unit_idempotent(self, graph):
        expr = SPJ([Atom("A", "A")])
        u1 = graph.create_unit("src:g:a", expr)
        u2 = graph.create_unit("src:g:a", expr)
        assert u1 is u2
        assert len(graph.units) == 1

    def test_cross_site_unit_rejected(self, graph):
        with pytest.raises(ExecutionError):
            graph.create_unit("src:g:bad", abc_expr())

    def test_unit_charges_graph_clock(self, graph):
        unit = graph.create_unit("src:g:a", SPJ([Atom("A", "A")]))
        unit.read_and_route(graph.epoch)
        assert graph.clock.now == pytest.approx(
            CONFIG.delays.stream_read_mean + CONFIG.delays.cpu_insert)


class TestRASources:
    def test_shared_by_scope(self, graph):
        s1 = graph.ra_source_for("B", (), "g")
        s2 = graph.ra_source_for("B", (), "g")
        assert s1 is s2

    def test_distinct_per_scope(self, graph):
        s1 = graph.ra_source_for("B", (), "cq1")
        s2 = graph.ra_source_for("B", (), "cq2")
        assert s1 is not s2

    def test_distinct_per_selection(self, graph):
        sel = (Selection("A", "name", "contains", "x"),)
        s1 = graph.ra_source_for("A", sel, "g")
        s2 = graph.ra_source_for("A", (), "g")
        assert s1 is not s2


class TestEpochs:
    def test_next_epoch_increments(self, graph):
        assert graph.next_epoch() == 1
        assert graph.next_epoch() == 2
        assert graph.epoch == 2


class TestDescent:
    def test_descend_to_unit(self, graph):
        unit = graph.create_unit("src:g:a", SPJ([Atom("A", "A")]))
        assert graph.descend_to_readable(unit) is unit

    def test_descend_exhausted_unit_none(self, graph):
        unit = graph.create_unit("src:g:a", SPJ([Atom("A", "A")]))
        while unit.readable():
            unit.read_and_route(graph.epoch)
        assert graph.descend_to_readable(unit) is None

    def test_descend_through_mjoin(self, fed):
        qs = QueryStateManager(fed, CONFIG)
        graph = qs.get_or_create_graph("main")
        cq = make_cq(abc_expr(), fed, "c1", "u1")
        from repro.optimizer.bestplan import BestPlanSearch
        from repro.optimizer.candidates import (
            enumerate_candidates,
            streamable_aliases,
        )
        from repro.optimizer.cost import CostModel
        from repro.optimizer.factorize import factorize

        cost = CostModel(fed, CONFIG)
        cands = enumerate_candidates([cq], fed, cost, CONFIG)
        streamable = {"c1": streamable_aliases(cq, fed, CONFIG)}
        result = BestPlanSearch(
            cqs=[cq], candidates=cands, cost_model=cost, config=CONFIG,
            streamable=streamable,
        ).run()
        plan = factorize(result, [cq], cost, "main")
        uq = UserQuery("u1", ("kw",), [cq], k=3)
        qs.register_plan(graph, plan, [uq])
        rm = graph.rank_merges["u1"]
        qs.ensure_activation(graph, rm)
        entry = rm.preferred_entry()
        assert entry is not None
        base = graph.descend_to_readable(entry.supplier)
        assert base is not None
        assert base.readable()


class TestAccounting:
    def test_split_count(self, graph):
        unit = graph.create_unit("src:g:a", SPJ([Atom("A", "A")]))
        assert graph.split_count() == 0
        unit.consumers.append(object())
        unit.consumers.append(object())
        assert graph.split_count() == 1

    def test_state_size_counts_everything(self, graph):
        unit = graph.create_unit("src:g:a", SPJ([Atom("A", "A")]))
        unit.read_and_route(graph.epoch)
        ra = graph.ra_source_for("B", (), "g")
        ra.probe("x", 2)
        assert graph.state_size() >= 3  # 1 module tuple + 2 cached rows

    def test_incomplete_rank_merges_empty(self, graph):
        assert graph.incomplete_rank_merges() == []
