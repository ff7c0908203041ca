"""Tests for the Section 5.2 plan-graph factorization."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import ExecutionConfig
from repro.data.database import Federation
from repro.data.figure1 import figure1_federation
from repro.data.inverted import InvertedIndex
from repro.data.schema import Attribute, Relation, Schema, SchemaEdge
from repro.keyword.candidates import CandidateNetworkGenerator
from repro.keyword.queries import KeywordQuery
from repro.optimizer.bestplan import BestPlanResult, BestPlanSearch
from repro.optimizer.candidates import (
    driving_stream_aliases,
    enumerate_candidates,
    pushdown_subsets,
    streamable_aliases,
)
from repro.optimizer.cost import CostModel
from repro.optimizer.factorize import Factorization, factorize
from repro.plan.expressions import SPJ, Atom, JoinPred, Selection, make_chain

from tests.conftest import (
    TINY_FIG1_CARDS,
    abc_expr,
    e2e_corpus,
    load_triple_federation,
    make_cq,
    make_triple_schema,
    populate_random,
)


@pytest.fixture()
def fed():
    return load_triple_federation()


@pytest.fixture()
def config():
    return ExecutionConfig(k=5, tau_probe_threshold=2, seed=1)


def plan_for(fed, config, cqs, sharing=True, scope="g"):
    cost = CostModel(fed, config)
    candidates = enumerate_candidates(cqs, fed, cost, config,
                                      sharing=sharing)
    streamable = {
        cq.cq_id: streamable_aliases(cq, fed, config) for cq in cqs
    }
    result = BestPlanSearch(
        cqs=cqs, candidates=candidates, cost_model=cost, config=config,
        streamable=streamable,
    ).run()
    return factorize(result, cqs, cost, scope, sharing=sharing)


def split_degree(plan) -> dict[str, int]:
    """Fan-out per node id (>= 2 implies a split operator)."""
    fanout: dict[str, int] = {}
    for comp in plan.components.values():
        for child in comp.stream_children:
            fanout[child] = fanout.get(child, 0) + 1
    for final in plan.cq_final.values():
        fanout[final] = fanout.get(final, 0) + 1
    return fanout


def stream_sources(plan, cq_id) -> set[str]:
    """The streaming inputs under a CQ's final node."""
    todo, found = [plan.cq_final[cq_id]], set()
    while todo:
        node_id = todo.pop()
        if node_id in plan.sources:
            found.add(node_id)
        else:
            todo.extend(plan.components[node_id].stream_children)
    return found


def full_cq(fed, cq_id="cq0", uq_id="uq0", selections=()):
    return make_cq(abc_expr(tuple(selections)), fed, cq_id, uq_id)


class TestSingleQuery:
    def test_final_covers_whole_query(self, fed, config):
        cq = full_cq(fed)
        plan = plan_for(fed, config, [cq])
        final_id = plan.cq_final["cq0"]
        assert final_id in plan.components
        assert set(plan.components[final_id].expr.aliases) \
            == {"A", "B", "C"}

    def test_probe_atom_absorbed(self, fed, config):
        cq = full_cq(fed)
        plan = plan_for(fed, config, [cq])
        final = plan.components[plan.cq_final["cq0"]]
        assert "B" in final.probe_atoms

    def test_sources_registered(self, fed, config):
        cq = full_cq(fed)
        plan = plan_for(fed, config, [cq])
        exprs = {spec.expr.relations for spec in plan.sources.values()}
        assert ("A",) in exprs or ("A", "B") in exprs

    def test_single_atom_query_maps_to_source(self, fed, config):
        cq = make_cq(abc_expr().induced({"A"}), fed, "solo")
        plan = plan_for(fed, config, [cq])
        final = plan.cq_final["solo"]
        assert final in plan.sources


class TestSharing:
    def test_identical_queries_share_final_component(self, fed, config):
        cq1, cq2 = full_cq(fed, "cq1"), full_cq(fed, "cq2")
        plan = plan_for(fed, config, [cq1, cq2])
        assert plan.cq_final["cq1"] == plan.cq_final["cq2"]
        final = plan.components[plan.cq_final["cq1"]]
        assert final.cqs == {"cq1", "cq2"}

    def test_subexpression_query_shares_prefix(self, fed, config):
        whole = full_cq(fed, "whole")
        sub = make_cq(abc_expr().induced({"A", "B"}), fed, "sub")
        plan = plan_for(fed, config, [whole, sub])
        sub_final = plan.cq_final["sub"]
        whole_final = plan.cq_final["whole"]
        assert sub_final != whole_final
        # the whole query's component tree must reference the shared
        # node (either directly or through a source both consume)
        whole_children = set(
            plan.components[whole_final].stream_children
        )
        shared = sub_final in whole_children or bool(
            stream_sources(plan, "sub") & stream_sources(plan, "whole")
        )
        assert shared

    def test_split_degree_marks_shared_nodes(self, fed, config):
        whole = full_cq(fed, "whole")
        sub = make_cq(abc_expr().induced({"A", "B"}), fed, "sub")
        plan = plan_for(fed, config, [whole, sub])
        fanout = split_degree(plan)
        assert any(count >= 2 for count in fanout.values())

    def test_different_selections_not_shared(self, fed, config):
        sel = Selection("A", "name", "contains", "beta")
        cq1 = full_cq(fed, "cq1", selections=[sel])
        cq2 = full_cq(fed, "cq2")
        plan = plan_for(fed, config, [cq1, cq2])
        assert plan.cq_final["cq1"] != plan.cq_final["cq2"]


class TestNoSharing:
    def test_private_components_per_query(self, fed, config):
        cq1, cq2 = full_cq(fed, "cq1"), full_cq(fed, "cq2")
        plan = plan_for(fed, config, [cq1, cq2], sharing=False)
        assert plan.cq_final["cq1"] != plan.cq_final["cq2"]
        f1 = plan.components[plan.cq_final["cq1"]]
        f2 = plan.components[plan.cq_final["cq2"]]
        assert f1.cqs == {"cq1"}
        assert f2.cqs == {"cq2"}

    def test_private_sources_per_query(self, fed, config):
        cq1, cq2 = full_cq(fed, "cq1"), full_cq(fed, "cq2")
        plan = plan_for(fed, config, [cq1, cq2], sharing=False)
        assert not (stream_sources(plan, "cq1")
                    & stream_sources(plan, "cq2"))


class TestStructure:
    def test_children_reference_known_nodes(self, fed, config):
        cqs = [full_cq(fed, f"cq{i}") for i in range(2)]
        sub = make_cq(abc_expr().induced({"A", "B"}), fed, "sub")
        plan = plan_for(fed, config, cqs + [sub])
        known = set(plan.sources) | set(plan.components)
        for comp in plan.components.values():
            for child in comp.stream_children:
                assert child in known

    def test_components_flattened_not_stacked(self, fed, config):
        # A single query's plan should be one m-join over its inputs,
        # not a tower of binary joins.
        cq = full_cq(fed)
        plan = plan_for(fed, config, [cq])
        assert len(plan.components) == 1

    def test_scope_in_ids(self, fed, config):
        cq = full_cq(fed)
        plan = plan_for(fed, config, [cq], scope="myscope")
        for comp_id in plan.components:
            assert ":myscope:" in comp_id


class TestTieBreak:
    def test_join_only_difference_does_not_fall_to_batch_order(self, fed,
                                                              config):
        """Two ops over the same regions whose combined expressions
        differ only in the join predicate tie on support and
        cardinality, and ``repr`` prints no joins: the winner used to
        be whichever query came first in the batch."""
        cost = CostModel(fed, config)

        def joined_on(attr, cq_id):
            expr = SPJ([Atom("A", "A"), Atom("B", "B")],
                       [JoinPred.normalized("A", attr, "B", attr)])
            return make_cq(expr, fed, cq_id, cq_id)

        cqs = [joined_on("u", "cq1"), joined_on("v", "cq2")]
        assert repr(cqs[0].expr) == repr(cqs[1].expr)
        assert cqs[0].expr.order_key != cqs[1].expr.order_key
        assert cost.est_cardinality(cqs[0].expr) == \
            cost.est_cardinality(cqs[1].expr)
        both = frozenset({"cq1", "cq2"})
        result = BestPlanResult(
            streams={cqs[0].expr.induced({"A"}): both,
                     cqs[0].expr.induced({"B"}): both},
            probes={}, cost=0.0)
        forward = factorize(result, cqs, cost, "g")
        backward = factorize(result, cqs[::-1], cost, "g")
        assert len(forward.components) == 2
        assert list(forward.components) == list(backward.components)


# -- incremental op table == from-scratch enumeration ------------------------

CHAIN = 6


@pytest.fixture(scope="module")
def chain_fed():
    """R0 -n=p- R1 -n=p- ... -n=p- R5, every relation scored."""
    relations = [
        Relation(f"R{i}", (
            Attribute("p", is_key=True),
            Attribute("n", is_key=True),
            Attribute("name", is_text=True),
            Attribute("s", is_score=True),
        ), site=f"s{i % 2}", node_cost=0.2)
        for i in range(CHAIN)
    ]
    edges = [SchemaEdge(f"R{i}", "n", f"R{i + 1}", "p", cost=0.5, kind="fk")
             for i in range(CHAIN - 1)]
    return populate_random(
        Schema(relations, edges),
        {f"R{i}": 20 + 7 * i for i in range(CHAIN)}, seed=3)


@st.composite
def chain_batches(draw):
    """2-5 CQs, each a window of the chain (aliases are relation names,
    so windows that overlap share sub-expressions) with at most one
    selection from a small pool, plus an input assignment for each:
    the window cut into contiguous segments, every segment a streamed
    input except that single atoms may be probed instead."""
    batch = []
    for _ in range(draw(st.integers(2, 5))):
        size = draw(st.integers(2, 4))
        lo = draw(st.integers(0, CHAIN - size))
        selected = draw(st.sampled_from([None, "alpha", "beta"]))
        cuts = draw(st.lists(st.booleans(), min_size=size - 1,
                             max_size=size - 1))
        probed = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        batch.append((lo, size, selected, cuts, probed))
    return batch, draw(st.booleans())


def build_batch(fed, batch):
    """The CQs and the ``BestPlanResult`` a drawn batch describes."""
    cqs = []
    streams: dict = {}
    probes: dict = {}
    for number, (lo, size, selected, cuts, probed) in enumerate(batch):
        names = [f"R{i}" for i in range(lo, lo + size)]
        selections = [] if selected is None else [
            Selection(names[0], "name", "contains", selected)]
        expr = make_chain([(name, name, "p", "n") for name in names],
                          selections)
        cq = make_cq(expr, fed, f"cq{number}", f"uq{number}")
        cqs.append(cq)
        segments = [[names[0]]]
        for name, cut in zip(names[1:], cuts):
            if cut:
                segments.append([name])
            else:
                segments[-1].append(name)
        probes[cq.cq_id] = ()
        streamed = 0
        for position, segment in enumerate(segments):
            last = position == len(segments) - 1
            if (len(segment) == 1 and probed[position]
                    and not (last and streamed == 0)):
                probes[cq.cq_id] += (segment[0],)
            else:
                streamed += 1
                streams.setdefault(expr.induced(segment), set()).add(cq.cq_id)
    result = BestPlanResult(
        streams={e: frozenset(ids) for e, ids in streams.items()},
        probes=probes, cost=0.0)
    return cqs, result


def linked(expr, left, right):
    return any(
        (p.left_alias in left and p.right_alias in right)
        or (p.right_alias in left and p.left_alias in right)
        for p in expr.joins)


def ops_from_scratch(state):
    """Every applicable op with its support, enumerated over every CQ
    of the batch -- the full rescan ``factorize`` used to do per op."""
    ops: dict = {}
    for cq in state.cqs:
        owner = () if state.sharing else (cq.cq_id,)
        regions = sorted(state.regions[cq.cq_id].items(),
                         key=lambda item: state.keys[item[0]])
        for i, (id_a, aliases_a) in enumerate(regions):
            for id_b, aliases_b in regions[i + 1:]:
                if linked(cq.expr, aliases_a, aliases_b):
                    key = ("join", id_a, id_b,
                           cq.expr.induced(aliases_a | aliases_b), *owner)
                    ops.setdefault(key, set()).add(cq.cq_id)
            for alias in state.pending_probes[cq.cq_id]:
                if linked(cq.expr, aliases_a, {alias}):
                    key = ("absorb", id_a, alias,
                           cq.expr.induced(aliases_a | {alias}), *owner)
                    ops.setdefault(key, set()).add(cq.cq_id)
    return ops


def ranks_from_scratch(state, cost, ops):
    """Every op's rank addends, computed afresh."""
    return {
        key: (cost.est_cardinality(key[3]),
              (key[0], state.keys[key[1]],
               state.keys[key[2]] if key[0] == "join" else key[2],
               key[3].order_key, *key[4:]))
        for key in ops
    }


def check_against_rescan(state, cost):
    """Factorize ``state`` to the end, checking before every apply and
    after the last that the maintained op table, its ranks and the op
    the heap picks equal a from-scratch rebuild and the ``min`` over it
    that ``best_op`` used to take; return the finished plan."""
    while state.work_left():
        ops = ops_from_scratch(state)
        ranks = ranks_from_scratch(state, cost, ops)
        assert state.ops == ops
        assert state.ranks == ranks
        key = min(ops, key=lambda k: (-len(ops[k]), *ranks[k]))
        assert state.best_op() == key
        state.apply(key)
    assert state.ops == ops_from_scratch(state) == {}
    assert state.best_op() is None
    return state.finish()


class TestIncrementalOpTable:
    @given(chain_batches())
    @settings(max_examples=60, deadline=None)
    def test_table_and_plan_match_a_from_scratch_loop(self, chain_fed, drawn):
        batch, sharing = drawn
        cost = CostModel(chain_fed, ExecutionConfig(k=5, seed=1))
        cqs, result = build_batch(chain_fed, batch)
        state = Factorization(result, cqs, cost, "g", sharing)
        reference = check_against_rescan(state, cost)
        assert factorize(result, cqs, cost, "g", sharing=sharing) == reference
        for cq in cqs:
            final = reference.cq_final[cq.cq_id]
            spec = reference.components.get(final)
            covered = spec.expr if spec else reference.sources[final].expr
            assert covered == cq.expr

    @pytest.mark.parametrize("sharing", [True, False])
    def test_an_op_that_loses_part_of_its_support_stays_ranked(
            self, chain_fed, sharing):
        """R0 |X| R1 |X| R2 streamed atom by atom, beside R0 |X| R1 and
        R1 |X| R2 streamed the same way: the two joins at R1 tie at
        support 2, and whichever goes first takes R1 from the middle
        query, so the other keeps only its second query.  Its heap entry
        must follow, or the query it still serves never finishes."""
        cost = CostModel(chain_fed, ExecutionConfig(k=5, seed=1))
        cqs, result = build_batch(chain_fed, [
            (0, 3, None, [True, True], [False] * 3),
            (0, 2, None, [True], [False] * 2),
            (1, 2, None, [True], [False] * 2),
        ])
        state = Factorization(result, cqs, cost, "g", sharing)
        check_against_rescan(state, cost)


@pytest.fixture(scope="module")
def corpora():
    """The figure-1 and e2e corpora, each with a generator and the head
    of its vocabulary."""
    out = {}
    for name, federation in (
            ("figure1", figure1_federation(
                seed=7, cardinalities=dict(TINY_FIG1_CARDS),
                domain_factor=0.7)),
            ("e2e", e2e_corpus())):
        out[name] = (federation, CandidateNetworkGenerator(federation),
                     InvertedIndex(federation).vocabulary()[:10])
    return out


@st.composite
def keyword_batches(draw):
    """A corpus, 1-4 distinct keyword pairs from its vocabulary's head
    (positions, resolved against the corpus), and whether the batch
    shares."""
    corpus = draw(st.sampled_from(["figure1", "e2e"]))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(
            lambda p: p[0] < p[1]),
        min_size=1, max_size=4, unique=True))
    return corpus, pairs, draw(st.booleans())


class TestOpTableOnTheCorpora:
    """The generator's batches, planned by Algorithm 1: the maintained
    op table is the rescanned one after every apply."""

    @given(keyword_batches())
    @settings(max_examples=30, deadline=None)
    def test_table_ranks_and_choice_match_a_rescan(self, corpora, drawn):
        corpus, pairs, sharing = drawn
        federation, generator, vocabulary = corpora[corpus]
        config = ExecutionConfig(k=10, seed=7)
        cost = CostModel(federation, config)
        cqs = [cq for number, (i, j) in enumerate(pairs)
               for cq in generator.generate(KeywordQuery(
                   f"q{number}", (vocabulary[i], vocabulary[j]), k=10)).cqs]
        candidates = enumerate_candidates(cqs, federation, cost, config,
                                          sharing=sharing)
        result = BestPlanSearch(
            cqs=cqs, candidates=candidates, cost_model=cost, config=config,
            streamable={cq.cq_id: driving_stream_aliases(cq, federation,
                                                         config)
                        for cq in cqs},
        ).run()
        state = Factorization(result, cqs, cost, "g", sharing)
        reference = check_against_rescan(state, cost)
        assert factorize(result, cqs, cost, "g", sharing=sharing) == reference


class TestPushdownSubsets:
    def test_each_federation_reads_its_own_sites(self):
        """Two federations whose queries have the same atoms and joins
        but whose relations sit at different sites get their own
        subsets, whichever asks first."""
        def together() -> Federation:
            schema = make_triple_schema()
            return Federation(Schema(
                [dataclasses.replace(r, site="s1") for r in schema.relations],
                schema.edges))

        expr = abc_expr()
        split_subsets = {frozenset("AB")}
        together_subsets = {frozenset("AB"), frozenset("BC"),
                            frozenset("ABC")}
        for order in ((load_triple_federation, together),
                      (together, load_triple_federation)):
            for build in order:
                subsets = set(pushdown_subsets(build())(expr.atoms,
                                                        expr.joins))
                assert subsets == (split_subsets
                                   if build is load_triple_federation
                                   else together_subsets)
