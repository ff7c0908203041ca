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
    MAX_PUSHDOWN_SIZE,
    driving_stream_aliases,
    enumerate_candidates,
    streamable_aliases,
)
from repro.optimizer.cost import CostModel, ReuseOracle
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


def best_plan(fed, config, cqs, sharing=True):
    """Algorithm 1 over ``cqs``, run."""
    cost = CostModel(fed, config)
    return BestPlanSearch(
        cqs=cqs, cost_model=cost, config=config,
        candidates=enumerate_candidates(cqs, fed, cost, config,
                                        sharing=sharing),
        streamable={cq.cq_id: streamable_aliases(cq, fed, config)
                    for cq in cqs},
    ).run()


class TestStreamableAliases:
    def test_scored_relations_streamable(self, fed, config):
        cq = full_cq(fed)
        aliases = streamable_aliases(cq, fed, config)
        assert "A" in aliases and "C" in aliases

    def test_scoreless_large_relation_probed(self, fed, config):
        cq = full_cq(fed)
        # B has 4 rows >= tau=2 and no score: probe-only.
        assert "B" not in streamable_aliases(cq, fed, config)

    def test_scoreless_small_relation_streamable(self, fed):
        config = ExecutionConfig(k=5, tau_probe_threshold=100)
        cq = full_cq(fed)
        assert "B" in streamable_aliases(cq, fed, config)


class TestAndOrGraph:
    """The OR level of Section 5.1.2's AND-OR memo, which
    :func:`enumerate_candidates` keeps as a fragment table: with every
    utility heuristic opened up, each pushable connected fragment of
    2..``MAX_PUSHDOWN_SIZE`` atoms is a candidate, with every CQ it
    occurs in as a consumer."""

    @pytest.fixture()
    def open_config(self):
        return ExecutionConfig(k=1, tau_probe_threshold=2, seed=1,
                               low_cardinality_bonus=10_000,
                               min_sharing_queries=1)

    def test_enumerates_all_fragments(self, fed, open_config):
        # Only A and B share a site: of the connected fragments A-B,
        # B-C and A-B-C (A-C is disconnected), A-B alone is pushable.
        cq = full_cq(fed)
        result = enumerate_candidates([cq], fed, CostModel(fed, open_config),
                                      open_config)
        assert [c.expr for c in result] == [cq.expr.induced({"A", "B"})]

    def test_shared_nodes_tracks_queries(self, fed, open_config):
        cq1 = full_cq(fed, "cq1")
        cq2 = full_cq(fed, "cq2")
        result = enumerate_candidates([cq1, cq2], fed,
                                      CostModel(fed, open_config), open_config)
        assert [c.consumers for c in result] == [{"cq1", "cq2"}]

    def test_max_fragment_size_respected(self, burst_world, open_config):
        fed, generator, _config, pairs = burst_world
        cqs = [cq for n, pair in enumerate(pairs[:5])
               for cq in generator.generate(
                   KeywordQuery(f"q{n}", pair, k=10)).cqs]
        assert max(cq.expr.size for cq in cqs) > MAX_PUSHDOWN_SIZE
        result = enumerate_candidates(cqs, fed, CostModel(fed, open_config),
                                      open_config)
        assert {c.expr.size for c in result} \
            == set(range(2, MAX_PUSHDOWN_SIZE + 1))


class TestEnumerateCandidates:
    def test_base_candidates_always_present(self, fed, config):
        """Base relations are not candidates: Algorithm 1 streams them
        itself for every streamable atom no candidate covers."""
        cq = full_cq(fed)
        assert enumerate_candidates([cq], fed, CostModel(fed, config),
                                    config, sharing=False) == []
        result = best_plan(fed, config, [cq], sharing=False)
        assert cq.expr.induced({"A"}) in result.streams
        assert cq.expr.induced({"C"}) in result.streams

    def test_no_sharing_mode_skips_pushdowns(self, fed, config):
        cq = full_cq(fed)
        cost = CostModel(fed, config)
        result = enumerate_candidates([cq], fed, cost, config,
                                      sharing=False)
        assert result == []

    def test_pushdowns_single_site_only(self, fed, config):
        cq = full_cq(fed)
        cost = CostModel(fed, config)
        result = enumerate_candidates([cq], fed, cost, config)
        for candidate in result:
            assert fed.site_of_expression(candidate.expr) is not None

    def test_pushdown_requires_score(self, fed):
        # A fragment of only score-less atoms must not be streamed.
        config = ExecutionConfig(k=5, tau_probe_threshold=2,
                                 low_cardinality_bonus=10_000,
                                 min_sharing_queries=1)
        cq = full_cq(fed)
        cost = CostModel(fed, config)
        result = enumerate_candidates([cq], fed, cost, config)
        for candidate in result:
            has_score = any(
                fed.schema.relation(a.relation).has_score
                for a in candidate.expr.atoms
            )
            assert has_score

    def test_selection_distinguishes_base_groups(self, fed, config):
        """A selected and an unselected atom of one relation never
        share a stream: s(A) and A are different inputs."""
        sel = Selection("A", "name", "contains", "protein")
        cq1 = full_cq(fed, "cq1", selections=[sel])
        cq2 = full_cq(fed, "cq2")
        result = best_plan(fed, config, [cq1, cq2])
        a_streams = {expr: consumers
                     for expr, consumers in result.streams.items()
                     if expr.relations == ("A",)}
        assert a_streams == {cq1.expr.induced({"A"}): {"cq1"},
                             cq2.expr.induced({"A"}): {"cq2"}}

    def test_shared_base_groups_merge_consumers(self, fed, config):
        """Identical base inputs are one stream even without sharing
        candidates (the ATC-CQ baseline)."""
        cq1 = full_cq(fed, "cq1")
        cq2 = full_cq(fed, "cq2")
        result = best_plan(fed, config, [cq1, cq2], sharing=False)
        assert result.streams[cq1.expr.induced({"A"})] \
            == frozenset({"cq1", "cq2"})

    @given(st.lists(st.integers(0, 65), min_size=1, max_size=6, unique=True),
           st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_depends_only_on_the_set_of_cqs(self, burst_world, picks, rnd):
        """Candidates are a function of the batch's set of CQs: every
        permutation gives the same list, and each candidate is a
        connected fragment of 2..MAX_PUSHDOWN_SIZE atoms induced from
        every one of its consumers."""
        fed, generator, config, pairs = burst_world
        cqs = [cq for number in picks
               for cq in generator.generate(KeywordQuery(
                   f"q{number}", pairs[number], k=10)).cqs]
        cost = CostModel(fed, config)
        result = enumerate_candidates(cqs, fed, cost, config)
        shuffled = list(cqs)
        rnd.shuffle(shuffled)
        assert enumerate_candidates(shuffled, fed, cost, config) == result
        by_id = {cq.cq_id: cq for cq in cqs}
        for candidate in result:
            expr = candidate.expr
            assert expr.is_connected()
            assert 2 <= expr.size <= MAX_PUSHDOWN_SIZE
            for cq_id in candidate.consumers:
                assert by_id[cq_id].expr.induced(expr.aliases) == expr


class TestCostModel:
    def test_base_cardinality(self, fed, config):
        assert CostModel(fed, config).federation.cardinality("B") == 4

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
    def test_result_is_valid_single_query(self, fed, config):
        cq = full_cq(fed)
        result = best_plan(fed, config, [cq])
        assert result.probes.get("cq0") == ("B",)
        covered = set()
        for expr, consumers in result.streams.items():
            if "cq0" in consumers:
                covered.update(expr.aliases)
        assert covered | {"B"} == {"A", "B", "C"}

    def test_no_overlapping_inputs_per_query(self, fed, config):
        cqs = [full_cq(fed, f"cq{i}") for i in range(3)]
        result = best_plan(fed, config, cqs)
        for cq in cqs:
            seen: list[str] = []
            for expr, consumers in result.streams.items():
                if cq.cq_id in consumers:
                    seen.extend(expr.aliases)
            assert len(seen) == len(set(seen))

    def test_identical_queries_share_every_input(self, fed, config):
        cqs = [full_cq(fed, f"cq{i}") for i in range(3)]
        result = best_plan(fed, config, cqs)
        for expr, consumers in result.streams.items():
            assert consumers == frozenset(cq.cq_id for cq in cqs)

    def test_no_sharing_still_valid(self, fed, config):
        cqs = [full_cq(fed, f"cq{i}") for i in range(2)]
        result = best_plan(fed, config, cqs, sharing=False)
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
        result = best_plan(fed, config, [cq])
        assert result.plans_explored >= 1

    def test_deterministic(self, fed, config):
        cqs = [full_cq(fed, f"cq{i}") for i in range(2)]
        r1 = best_plan(fed, config, cqs)
        r2 = best_plan(fed, config, cqs)
        assert r1.streams == r2.streams
        assert r1.cost == pytest.approx(r2.cost)


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
        oracle=oracle)


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
