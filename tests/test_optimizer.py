"""Tests for the optimizer stack: candidate enumeration heuristics,
BestPlan (Algorithm 1), and the cost model."""

import gc
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import ExecutionConfig, SharingMode
from repro.data.inverted import InvertedIndex
from repro.keyword.candidates import CandidateNetworkGenerator
from repro.keyword.queries import KeywordQuery
from repro.optimizer.bestplan import BestPlanSearch
from repro.optimizer.candidates import (
    driving_stream_aliases,
    enumerate_candidates,
    probe_aliases,
    streamable_aliases,
)
from repro.optimizer.cost import CostModel, ReuseOracle
from repro.plan.andor import AndOrGraph
from repro.plan.expressions import (
    SPJ,
    Atom,
    JoinPred,
    Selection,
    interned_count,
)

from tests.conftest import (
    abc_expr,
    e2e_corpus,
    load_triple_federation,
    make_cq,
)


@pytest.fixture()
def fed():
    return load_triple_federation()


@pytest.fixture()
def config():
    return ExecutionConfig(k=5, tau_probe_threshold=2, seed=1)


def full_cq(fed, cq_id="cq0", uq_id="uq0", selections=()):
    return make_cq(abc_expr(tuple(selections)), fed, cq_id, uq_id)


class TestStreamableAliases:
    def test_scored_relations_streamable(self, fed, config):
        cq = full_cq(fed)
        aliases = streamable_aliases(cq, fed, config)
        assert "A" in aliases and "C" in aliases

    def test_scoreless_large_relation_probed(self, fed, config):
        cq = full_cq(fed)
        # B has 4 rows >= tau=2 and no score: probe-only.
        assert "B" not in streamable_aliases(cq, fed, config)
        assert probe_aliases(cq, fed, config) == ("B",)

    def test_scoreless_small_relation_streamable(self, fed):
        config = ExecutionConfig(k=5, tau_probe_threshold=100)
        cq = full_cq(fed)
        assert "B" in streamable_aliases(cq, fed, config)


class TestAndOrGraph:
    def test_enumerates_all_fragments(self, fed):
        cq = full_cq(fed)
        graph = AndOrGraph(max_fragment_size=3)
        graph.add_queries([cq])
        assert len(graph) == 6  # A,B,C,AB,BC,ABC (AC is disconnected)

    def test_join_alternatives_are_bipartitions(self, fed):
        cq = full_cq(fed)
        graph = AndOrGraph(max_fragment_size=3)
        graph.add_queries([cq])
        node = graph.node(cq.expr)
        assert node is not None
        for alt in node.alternatives:
            assert alt.kind == "join"
            left, right = alt.children
            assert set(left.aliases) | set(right.aliases) == {"A", "B", "C"}
            assert not set(left.aliases) & set(right.aliases)

    def test_scan_alternative_for_singletons(self, fed):
        cq = full_cq(fed)
        graph = AndOrGraph()
        graph.add_queries([cq])
        single = graph.node(cq.expr.induced({"A"}))
        assert single.alternatives[0].kind == "scan"

    def test_shared_nodes_tracks_queries(self, fed):
        cq1 = full_cq(fed, "cq1")
        cq2 = full_cq(fed, "cq2")
        graph = AndOrGraph()
        graph.add_queries([cq1, cq2])
        shared = graph.shared_nodes(min_queries=2)
        assert any(n.expr == cq1.expr for n in shared)

    def test_max_fragment_size_respected(self, fed):
        cq = full_cq(fed)
        graph = AndOrGraph(max_fragment_size=2)
        graph.add_queries([cq])
        assert all(n.size <= 2 for n in graph.nodes)


class TestEnumerateCandidates:
    def test_base_candidates_always_present(self, fed, config):
        cq = full_cq(fed)
        cost = CostModel(fed, config)
        result = enumerate_candidates([cq], fed, cost, config)
        base_exprs = {c.expr for c in result.bases}
        assert cq.expr.induced({"A"}) in base_exprs
        assert cq.expr.induced({"C"}) in base_exprs

    def test_no_sharing_mode_skips_pushdowns(self, fed, config):
        cq = full_cq(fed)
        cost = CostModel(fed, config)
        result = enumerate_candidates([cq], fed, cost, config,
                                      sharing=False)
        assert result.pushdowns == []

    def test_pushdowns_single_site_only(self, fed, config):
        cq = full_cq(fed)
        cost = CostModel(fed, config)
        result = enumerate_candidates([cq], fed, cost, config)
        for candidate in result.pushdowns:
            assert fed.site_of_expression(candidate.expr) is not None

    def test_pushdown_requires_score(self, fed):
        # A fragment of only score-less atoms must not be streamed.
        config = ExecutionConfig(k=5, tau_probe_threshold=2,
                                 low_cardinality_bonus=10_000,
                                 min_sharing_queries=1)
        cq = full_cq(fed)
        cost = CostModel(fed, config)
        result = enumerate_candidates([cq], fed, cost, config)
        for candidate in result.pushdowns:
            has_score = any(
                fed.schema.relation(a.relation).has_score
                for a in candidate.expr.atoms
            )
            assert has_score

    def test_selection_distinguishes_base_groups(self, fed, config):
        sel = Selection("A", "name", "contains", "protein")
        cq1 = full_cq(fed, "cq1", selections=[sel])
        cq2 = full_cq(fed, "cq2")
        cost = CostModel(fed, config)
        result = enumerate_candidates([cq1, cq2], fed, cost, config)
        a_bases = [c for c in result.bases
                   if c.expr.relations == ("A",)]
        assert len(a_bases) == 2  # s(A) and A are different inputs

    def test_shared_base_groups_merge_consumers(self, fed, config):
        cq1 = full_cq(fed, "cq1")
        cq2 = full_cq(fed, "cq2")
        cost = CostModel(fed, config)
        result = enumerate_candidates([cq1, cq2], fed, cost, config)
        a_base = next(c for c in result.bases
                      if c.expr.relations == ("A",))
        assert a_base.consumers == frozenset({"cq1", "cq2"})


class TestCostModel:
    def test_base_cardinality(self, fed, config):
        assert CostModel(fed, config).base_cardinality("B") == 4

    def test_join_estimate_reasonable(self, fed, config):
        cost = CostModel(fed, config)
        ab = SPJ(
            [Atom("A", "A"), Atom("B", "B")],
            [JoinPred.normalized("A", "x", "B", "x")],
        )
        estimate = cost.est_cardinality(ab)
        assert 1.0 <= estimate <= 12.0  # true value is 4

    def test_selection_reduces_estimate(self, fed, config):
        cost = CostModel(fed, config)
        plain = SPJ([Atom("A", "A")])
        selected = SPJ([Atom("A", "A")], [],
                       [Selection("A", "name", "contains", "protein")])
        assert cost.est_cardinality(selected) < cost.est_cardinality(plain)

    def test_shared_input_cheaper_than_two_private(self, fed, config):
        cost = CostModel(fed, config)
        cq1, cq2 = full_cq(fed, "cq1"), full_cq(fed, "cq2")
        expr = cq1.expr.induced({"A"})
        shared = cost.input_stream_cost(expr, [cq1, cq2])
        private = (cost.input_stream_cost(expr, [cq1])
                   + cost.input_stream_cost(expr, [cq2]))
        assert shared < private

    def test_reuse_discount(self, fed, config):
        cost = CostModel(fed, config)
        cq = full_cq(fed)
        expr = cq.expr.induced({"A"})

        class Oracle(ReuseOracle):
            def tuples_already_read(self, e):
                return 1000

        fresh = cost.plan_cost({expr: frozenset({"cq0"})},
                               {"cq0": cq}, {"cq0": ("B", "C")})
        reused = cost.plan_cost({expr: frozenset({"cq0"})},
                                {"cq0": cq}, {"cq0": ("B", "C")},
                                oracle=Oracle())
        assert reused < fresh

    def test_costing_pins_no_expression(self, fed, config):
        """The model outlives queries (one per engine): its memo must
        not keep the expressions of queries long gone alive."""
        cost = CostModel(fed, config)
        gc.collect()
        before = interned_count()
        for i in range(40):
            cq = full_cq(fed, f"cq{i}", selections=(
                Selection("A", "name", "contains", f"word{i}"),))
            assert cost.expected_read(cq.expr.induced({"A"}), cq) > 0
            assert cost.est_cardinality(cq.expr.induced({"A", "B"})) > 0
        del cq
        gc.collect()
        assert interned_count() == before

    def test_estimate_independent_of_construction_order(self, fed, config):
        """The same value built from differently ordered parts (with
        nothing keeping the first build alive) costs bit-identically."""
        joins = list(abc_expr().joins)
        selections = [Selection("A", "name", "contains", "protein"),
                      Selection("C", "name", "eq", "x"),
                      Selection("C", "s", "ge", 0.5)]
        estimates = set()
        for flip in (1, -1):
            expr = SPJ(abc_expr().atoms[::flip], joins[::flip],
                       selections[::flip])
            assert expr.joins == tuple(sorted(joins))
            estimates.add(CostModel(fed, config).est_cardinality(expr).hex())
            del expr
        assert len(estimates) == 1


class TestBestPlan:
    def run_search(self, fed, config, cqs, sharing=True):
        cost = CostModel(fed, config)
        candidates = enumerate_candidates(cqs, fed, cost, config,
                                          sharing=sharing)
        streamable = {
            cq.cq_id: streamable_aliases(cq, fed, config) for cq in cqs
        }
        search = BestPlanSearch(
            cqs=cqs, candidates=candidates, cost_model=cost,
            config=config, streamable=streamable, probes={},
        )
        return search.run()

    def test_result_is_valid_single_query(self, fed, config):
        cq = full_cq(fed)
        result = self.run_search(fed, config, [cq])
        assert result.probes.get("cq0") == ("B",)
        covered = set()
        for expr, consumers in result.streams.items():
            if "cq0" in consumers:
                covered.update(expr.aliases)
        assert covered | {"B"} == {"A", "B", "C"}

    def test_no_overlapping_inputs_per_query(self, fed, config):
        cqs = [full_cq(fed, f"cq{i}") for i in range(3)]
        result = self.run_search(fed, config, cqs)
        for cq in cqs:
            seen: list[str] = []
            for expr, consumers in result.streams.items():
                if cq.cq_id in consumers:
                    seen.extend(expr.aliases)
            assert len(seen) == len(set(seen))

    def test_identical_queries_share_every_input(self, fed, config):
        cqs = [full_cq(fed, f"cq{i}") for i in range(3)]
        result = self.run_search(fed, config, cqs)
        for expr, consumers in result.streams.items():
            assert consumers == frozenset(cq.cq_id for cq in cqs)

    def test_no_sharing_still_valid(self, fed, config):
        cqs = [full_cq(fed, f"cq{i}") for i in range(2)]
        result = self.run_search(fed, config, cqs, sharing=False)
        assert result.cost > 0
        # each query fully covered
        for cq in cqs:
            covered = set(result.probes[cq.cq_id])
            for expr, consumers in result.streams.items():
                if cq.cq_id in consumers:
                    covered.update(expr.aliases)
            assert covered == {"A", "B", "C"}

    def test_explored_counts_recorded(self, fed, config):
        cq = full_cq(fed)
        result = self.run_search(fed, config, [cq])
        assert result.plans_explored >= 1
        assert result.wall_time >= 0.0

    def test_deterministic(self, fed, config):
        cqs = [full_cq(fed, f"cq{i}") for i in range(2)]
        r1 = self.run_search(fed, config, cqs)
        r2 = self.run_search(fed, config, cqs)
        assert r1.streams == r2.streams
        assert r1.cost == pytest.approx(r2.cost)

    def test_inputs_for_ordering(self, fed, config):
        cq = full_cq(fed)
        result = self.run_search(fed, config, [cq])
        inputs = result.inputs_for("cq0")
        sizes = [e.size for e in inputs]
        assert sizes == sorted(sizes, reverse=True)


class BufferedSome(ReuseOracle):
    """Claims a third of all inputs partly read, a third fully."""

    def tuples_already_read(self, expr):
        return (0, 30, 10_000)[len(expr.order_key) % 3]


@pytest.fixture(scope="module")
def burst_world():
    fed = e2e_corpus()
    index = InvertedIndex(fed)
    config = ExecutionConfig(mode=SharingMode.ATC_FULL, k=10, seed=7)
    pairs = list(itertools.combinations(index.vocabulary()[:12], 2))
    return fed, CandidateNetworkGenerator(fed, index=index), config, pairs


def burst_search(world, pairs, oracle=None):
    """Algorithm 1 over one batch of keyword pairs, ready to run."""
    fed, generator, config, _pairs = world
    cqs = [
        cq for number, pair in enumerate(pairs)
        for cq in generator.generate(
            KeywordQuery(f"q{number}", pair, k=10)).cqs
    ]
    cost = CostModel(fed, config)
    return BestPlanSearch(
        cqs=cqs,
        candidates=enumerate_candidates(cqs, fed, cost, config),
        cost_model=cost, config=config,
        streamable={cq.cq_id: driving_stream_aliases(cq, fed, config)
                    for cq in cqs},
        probes={}, oracle=oracle)


class TestLeafCosting:
    """Algorithm 1 costs a leaf from memoized per-CQ completions; the
    definition stays ``CostModel.plan_cost`` over the whole assembled
    assignment.  Leaves tie exactly in real arithmetic all the time, so
    nothing short of the same float picks the same plan."""

    @given(st.lists(st.integers(0, 65), min_size=5, max_size=5, unique=True),
           st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_every_leaf_costs_what_plan_cost_says(self, burst_world,
                                                  picks, reuse):
        pairs = burst_world[3]
        oracle = BufferedSome() if reuse else None
        search = burst_search(burst_world, [pairs[i] for i in picks], oracle)
        by_id = {cq.cq_id: cq for cq in search.cqs}
        costed = search._cost
        leaves = []

        def checked_cost(chosen, done):
            value = costed(chosen, done)
            streams, probes = search._assemble(chosen, done)
            assert value == search.cost_model.plan_cost(
                streams, by_id, probes, oracle)
            leaves.append(value)
            return value

        search._cost = checked_cost
        result = search.run()
        # One costing per explored leaf, one for the plan that won.
        explored = result.plans_explored if result.searched_candidates else 0
        assert len(leaves) == explored + 1
        assert result.cost == leaves[-1]

    def test_the_bursts_do_branch(self, burst_world):
        """The property above is not vacuous: a five-query burst has
        conflict components with many leaves."""
        result = burst_search(burst_world, burst_world[3][:5]).run()
        assert result.plans_explored > 4
