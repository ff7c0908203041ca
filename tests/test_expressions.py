"""Tests for the SPJ expression layer, including canonicalization."""

import copy
import gc
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import DelayModel, ExecutionConfig
from repro.common.errors import QueryError
from repro.data.rows import shape_count
from repro.keyword.queries import KeywordQuery
from repro.optimizer.cost import CostModel
from repro.plan.expressions import (
    SPJ,
    Atom,
    JoinPred,
    Selection,
    alias_isomorphism,
    interned_count,
    make_chain,
    union_of,
)
from repro.service import QService, ServiceConfig


def chain3(a="a", b="b", c="c") -> SPJ:
    return SPJ(
        [Atom(a, "R"), Atom(b, "S"), Atom(c, "T")],
        [JoinPred.normalized(a, "x", b, "x"),
         JoinPred.normalized(b, "y", c, "y")],
    )


def cross_subexpression_pairs(left: SPJ, right: SPJ):
    """Pairs of equivalent connected fragments, one from each query."""
    right_by_key: dict[str, list[SPJ]] = {}
    for fragment in right.connected_subexpressions():
        right_by_key.setdefault(fragment.canonical_key, []).append(fragment)
    for fragment in left.connected_subexpressions():
        for twin in right_by_key.get(fragment.canonical_key, ()):
            yield fragment, twin


def fragment_keys(expr: SPJ, size: int) -> set[str]:
    """Canonical keys of ``expr``'s connected fragments of ``size``."""
    return {fragment.canonical_key for fragment in
            expr.connected_subexpressions(min_size=size, max_size=size)}


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            SPJ([])

    def test_duplicate_alias_rejected(self):
        with pytest.raises(QueryError):
            SPJ([Atom("a", "R"), Atom("a", "S")])

    def test_join_unknown_alias_rejected(self):
        with pytest.raises(QueryError):
            SPJ([Atom("a", "R")],
                [JoinPred.normalized("a", "x", "b", "x")])

    def test_selection_unknown_alias_rejected(self):
        with pytest.raises(QueryError):
            SPJ([Atom("a", "R")], [], [Selection("b", "x", "eq", 1)])

    def test_self_join_pred_rejected(self):
        with pytest.raises(QueryError):
            JoinPred.normalized("a", "x", "a", "y")

    def test_bad_selection_op_rejected(self):
        with pytest.raises(QueryError):
            Selection("a", "x", "between", 1)

    def test_join_pred_normalization(self):
        p1 = JoinPred.normalized("b", "y", "a", "x")
        p2 = JoinPred.normalized("a", "x", "b", "y")
        assert p1 == p2

    def test_value_equality_and_hash(self):
        assert chain3() == chain3()
        assert hash(chain3()) == hash(chain3())

    def test_atoms_sorted(self):
        expr = SPJ([Atom("z", "R"), Atom("a", "S")])
        assert expr.aliases == ("a", "z")


class TestSelections:
    def test_eq_matches(self):
        sel = Selection("a", "x", "eq", 5)
        assert sel.matches({"x": 5})
        assert not sel.matches({"x": 6})

    def test_contains_matches(self):
        sel = Selection("a", "name", "contains", "membrane")
        assert sel.matches({"name": "plasma membrane protein"})
        assert not sel.matches({"name": "protein"})

    def test_ge_le(self):
        assert Selection("a", "x", "ge", 3).matches({"x": 3})
        assert not Selection("a", "x", "ge", 3).matches({"x": 2})
        assert Selection("a", "x", "le", 3).matches({"x": 3})
        assert not Selection("a", "x", "le", 3).matches({"x": 4})

    def test_missing_attr_is_false(self):
        assert not Selection("a", "q", "eq", 1).matches({"x": 1})


class TestStructure:
    def test_adjacency(self):
        expr = chain3()
        assert expr.adjacency["a"] == ("b",)
        assert expr.adjacency["b"] == ("a", "c")

    def test_connected(self):
        assert chain3().is_connected()

    def test_disconnected(self):
        expr = SPJ([Atom("a", "R"), Atom("b", "S")])
        assert not expr.is_connected()

    def test_single_atom_connected(self):
        assert SPJ([Atom("a", "R")]).is_connected()

    def test_induced_keeps_internal_structure(self):
        expr = chain3()
        sub = expr.induced({"a", "b"})
        assert sub.size == 2
        assert len(sub.joins) == 1

    def test_induced_drops_crossing_joins(self):
        expr = chain3()
        sub = expr.induced({"a", "c"})
        assert len(sub.joins) == 0

    def test_induced_unknown_alias_rejected(self):
        with pytest.raises(QueryError):
            chain3().induced({"nope"})

    def test_connected_subexpressions_count_chain3(self):
        # chain a-b-c: {a},{b},{c},{ab},{bc},{abc} = 6 connected subsets
        subs = list(chain3().connected_subexpressions())
        assert len(subs) == 6

    def test_connected_subexpressions_sizes_ascending(self):
        sizes = [s.size for s in chain3().connected_subexpressions()]
        assert sizes == sorted(sizes)

    def test_connected_subexpressions_max_size(self):
        subs = list(chain3().connected_subexpressions(max_size=2))
        assert all(s.size <= 2 for s in subs)
        assert len(subs) == 5

    def test_min_size_filter(self):
        subs = list(chain3().connected_subexpressions(min_size=3))
        assert len(subs) == 1
        assert subs[0] == chain3()

    def test_describe_marks_selections(self):
        expr = SPJ([Atom("a", "R")], [],
                   [Selection("a", "name", "contains", "x")])
        assert expr.describe() == "s(R)"


class TestCanonicalization:
    def test_renamed_equivalent(self):
        assert chain3("a", "b", "c").canonical_key \
            == chain3("p", "q", "r").canonical_key

    def test_different_relations_differ(self):
        other = SPJ(
            [Atom("a", "R"), Atom("b", "S"), Atom("c", "U")],
            [JoinPred.normalized("a", "x", "b", "x"),
             JoinPred.normalized("b", "y", "c", "y")],
        )
        assert other.canonical_key != chain3().canonical_key

    def test_different_attrs_differ(self):
        other = SPJ(
            [Atom("a", "R"), Atom("b", "S"), Atom("c", "T")],
            [JoinPred.normalized("a", "x", "b", "x"),
             JoinPred.normalized("b", "z", "c", "y")],
        )
        assert other.canonical_key != chain3().canonical_key

    def test_selection_values_distinguish(self):
        e1 = SPJ([Atom("a", "R")], [], [Selection("a", "n", "eq", 1)])
        e2 = SPJ([Atom("a", "R")], [], [Selection("a", "n", "eq", 2)])
        assert e1.canonical_key != e2.canonical_key

    def test_is_subexpression_of(self):
        """A fragment with its own aliases is found among the
        container's connected fragments by canonical key."""
        fragment = SPJ(
            [Atom("p", "R"), Atom("q", "S")],
            [JoinPred.normalized("p", "x", "q", "x")],
        )
        assert fragment.canonical_key in fragment_keys(chain3(), 2)

    def test_is_not_subexpression_when_disconnected_pair(self):
        """Without its join, an R, S pair is not the chain's R-S
        fragment."""
        fragment = SPJ([Atom("p", "R"), Atom("q", "S")])  # no join
        assert fragment.canonical_key not in fragment_keys(chain3(), 2)

    def test_alias_isomorphism_roundtrip(self):
        left = chain3("a", "b", "c")
        right = chain3("p", "q", "r")
        mapping = alias_isomorphism(left, right)
        assert mapping == {"a": "p", "b": "q", "c": "r"}

    def test_alias_isomorphism_rejects_nonequivalent(self):
        with pytest.raises(QueryError):
            alias_isomorphism(chain3(), SPJ([Atom("a", "R")]))

    def test_symmetric_star_canonicalizes(self):
        # hub H joined to two structurally identical spokes
        star = SPJ(
            [Atom("h", "H"), Atom("s1", "S"), Atom("s2", "S")],
            [JoinPred.normalized("h", "x", "s1", "x"),
             JoinPred.normalized("h", "x", "s2", "x")],
        )
        renamed = SPJ(
            [Atom("h", "H"), Atom("u", "S"), Atom("v", "S")],
            [JoinPred.normalized("h", "x", "u", "x"),
             JoinPred.normalized("h", "x", "v", "x")],
        )
        assert star.canonical_key == renamed.canonical_key

    def test_crosswise_star_canonicalizes(self):
        """A hub with two S-T spokes: which S each T hangs off is only
        a naming, so both namings get one key."""
        def star(s1_partner, s2_partner):
            return SPJ(
                [Atom("h", "H"), Atom("s1", "S"), Atom("s2", "S"),
                 Atom("t1", "T"), Atom("t2", "T")],
                [JoinPred.normalized("h", "x", "s1", "x"),
                 JoinPred.normalized("h", "x", "s2", "x"),
                 JoinPred.normalized("s1", "y", s1_partner, "y"),
                 JoinPred.normalized("s2", "y", s2_partner, "y")],
            )
        straight, crosswise = star("t1", "t2"), star("t2", "t1")
        assert straight.canonical_key == crosswise.canonical_key
        mapping = alias_isomorphism(straight, crosswise)
        assert straight.renamed(mapping) == crosswise

    def test_distinct_atoms_need_no_refinement(self):
        """Atoms told apart by relation and selections are named in
        the order of (relation, selections), whatever their aliases."""
        expr = SPJ([Atom("z", "R"), Atom("a", "T"), Atom("m", "S")],
                   [JoinPred.normalized("z", "x", "m", "x"),
                    JoinPred.normalized("m", "y", "a", "y")])
        assert expr.canonical_renaming == {"z": "q0", "m": "q1", "a": "q2"}

    @given(st.permutations(["a", "b", "c"]))
    @settings(max_examples=6, deadline=None)
    def test_canonical_key_invariant_under_renaming(self, names):
        a, b, c = names
        assert chain3(a, b, c).canonical_key == chain3().canonical_key

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_tree_key_invariant_under_alias_permutation(self, data):
        """Random trees of up to six atoms over few relations, so
        relations repeat and automorphisms abound: permuting the
        aliases never changes the key, and the renamings compose into
        an isomorphism."""
        size = data.draw(st.integers(1, 6))
        aliases = [f"a{i}" for i in range(size)]
        relations = data.draw(st.lists(st.sampled_from("RS"),
                                       min_size=size, max_size=size))
        atoms = [Atom(a, r) for a, r in zip(aliases, relations)]
        joins = []
        for child in range(1, size):
            parent = data.draw(st.integers(0, child - 1))
            joins.append(JoinPred.normalized(
                aliases[parent], data.draw(st.sampled_from("xy")),
                aliases[child], "x"))
        selections = [
            Selection(a, "name", "eq", "p")
            for a in aliases if data.draw(st.booleans())]
        expr = SPJ(atoms, joins, selections)
        permuted = data.draw(st.permutations(aliases))
        twin = expr.renamed(dict(zip(aliases, permuted)))
        assert twin.canonical_key == expr.canonical_key
        assert expr.renamed(alias_isomorphism(expr, twin)) == twin


class TestHelpers:
    def test_make_chain(self):
        expr = make_chain([
            ("R", "r", "", ""),
            ("S", "s", "x", "x"),
            ("T", "t", "y", "y"),
        ])
        assert expr.size == 3
        assert len(expr.joins) == 2
        assert expr.is_connected()

    def test_union_of(self):
        left = SPJ([Atom("a", "R")])
        right = SPJ([Atom("b", "S")])
        bridged = union_of(
            [left, right], [JoinPred.normalized("a", "x", "b", "x")]
        )
        assert bridged.is_connected()

    def test_cross_subexpression_pairs_finds_shared_fragment(self):
        left = chain3("a", "b", "c")
        right = chain3("p", "q", "r")
        pairs = list(cross_subexpression_pairs(left, right))
        # every connected fragment of the chain is shared: 6 pairs
        assert len(pairs) == 6
        for mine, theirs in pairs:
            assert mine.canonical_key == theirs.canonical_key


class TestInterning:
    """Deterministic cases; the permutation / duplication / shared
    ``induced`` properties live in ``test_properties.py``."""

    def test_equal_values_are_one_object(self):
        sel = Selection("b", "name", "contains", "x")
        first = SPJ(chain3().atoms, chain3().joins, [sel])
        assert SPJ(reversed(first.atoms), first.joins[::-1] * 2,
                   [sel, sel]) is first
        assert first is not chain3()
        assert first != chain3()

    def test_renamed_and_union_of_intern(self):
        expr = chain3()
        assert expr.renamed({}) is expr
        there = expr.renamed({"a": "p", "c": "r"})
        assert there is chain3("p", "b", "r")
        assert there.renamed({"p": "a", "r": "c"}) is expr
        parts = [expr.induced({"a"}), expr.induced({"b", "c"})]
        assert union_of(parts, [JoinPred.normalized("a", "x", "b", "x")]) \
            is expr

    def test_copies_are_the_same_object(self):
        expr = chain3()
        assert copy.copy(expr) is expr
        assert copy.deepcopy([expr])[0] is expr

    def test_invalid_input_leaves_no_entry(self):
        gc.collect()
        before = interned_count()
        bad = [
            lambda: SPJ([]),
            lambda: SPJ([Atom("a", "R"), Atom("a", "S")]),
            lambda: SPJ([Atom("a", "R")],
                        [JoinPred.normalized("a", "x", "b", "x")]),
            lambda: SPJ([Atom("a", "R")], [],
                        [Selection("b", "x", "eq", 1)]),
        ]
        for build in bad:
            with pytest.raises(QueryError):
                build()
        assert interned_count() == before
        expr = chain3()
        for subset in ({"nope"}, set()):
            with pytest.raises(QueryError):
                expr.induced(subset)
        del expr
        assert interned_count() == before

    def test_unreferenced_expressions_die_without_the_cycle_collector(self):
        """No memo may point back at its owner: dropping the last
        reference must free the expression and every fragment it
        derived by reference counting alone."""
        gc.collect()
        before = interned_count()
        gc.disable()
        try:
            expr = chain3("u", "v", "w")
            fragments = list(expr.connected_subexpressions())
            assert fragments[-1] is expr
            expr.induced(expr.aliases)
            assert expr.canonical_key and expr.adjacency
            assert interned_count() == before + 6
            del expr, fragments
            assert interned_count() == before
        finally:
            gc.enable()

    def test_concurrent_construction_agrees(self):
        """More threads than cores build the same values at once, none
        kept alive by the main thread: whatever the interleaving, equal
        values compare equal and hash equal."""
        n_threads, n_values = 8, 150
        barrier = threading.Barrier(n_threads)
        built: list[list[SPJ]] = [[] for _ in range(n_threads)]

        def work(slot: int) -> None:
            barrier.wait(timeout=10)
            for i in range(n_values):
                built[slot].append(chain3(f"a{i}", f"b{i}", f"c{i}"))

        threads = [threading.Thread(target=work, args=(slot,))
                   for slot in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(len(row) == n_values for row in built)
        for column in zip(*built):
            assert all(e == column[0] for e in column)
            assert len({hash(e) for e in column}) == 1
            assert len(set(column)) == 1
            assert column[0] is chain3(*column[0].aliases)


class TestInternTableBounded:
    """The table holds what the process still uses, nothing more."""

    KEYWORDS = [("protein", "plasma membrane"), ("gene", "membrane"),
                ("protein", "gene"), ("plasma membrane", "gene")]

    def serve(self, service, tag, keywords=KEYWORDS):
        handles = [
            service.submit(KeywordQuery(f"{tag}{i}", pair, k=5))
            for i, pair in enumerate(keywords)
        ]
        service.drain()
        assert all(h.done for h in handles)

    def test_shrinks_back_and_repeats_add_nothing(self, fig1_federation):
        """Expressions and tuple shapes alike (``Shape`` is interned the
        same way, in ``repro.data.rows``)."""
        gc.collect()
        before = interned_count()
        shapes_before = shape_count()
        service = QService(
            fig1_federation,
            ExecutionConfig(k=5, seed=1, batch_window=2.0,
                            delays=DelayModel(deterministic=True)),
            # Answer cache off: the repeat must reach the optimizer.
            service=ServiceConfig(coalesce=False, cache_ttl=1e-9))
        self.serve(service, "first")
        assert interned_count() > before
        # Nothing but the plan graph (and the interned expansions) keeps
        # an expression alive, so the count follows the graph, which
        # settles over the first two repeats: a repeat is optimized
        # against the state earlier rounds left, and may pick a plan
        # that grafts a few new operators.  Shapes settle with it (the
        # join order, not the queries, fixes a shape).
        self.serve(service, "again")
        self.serve(service, "third")
        served = interned_count()
        shapes = shape_count()
        assert shapes > shapes_before
        self.serve(service, "fourth")
        assert interned_count() == served
        assert shape_count() == shapes
        del service
        gc.collect()
        assert interned_count() == before
        assert shape_count() == shapes_before

    def test_five_query_batch_leaves_no_memo_behind(self, fig1_federation):
        """One multi-query batch walks every optimizer memo -- the
        per-expression cardinality and tie-break slots, Algorithm 1's
        per-CQ completions, the factorization op table -- and none of
        them outlives the service.  The collector stays off while
        serving, so no lucky pass hides a leak; the one explicit pass
        is for the dropped service's own cycles (the plan graph)."""
        gc.collect()
        before = interned_count()
        gc.disable()
        try:
            service = QService(
                fig1_federation,
                ExecutionConfig(k=5, seed=1, batch_window=2.0, batch_size=5,
                                delays=DelayModel(deterministic=True)),
                service=ServiceConfig(coalesce=False, cache_ttl=1e-9))
            self.serve(service, "burst",
                       self.KEYWORDS + [("protein", "membrane")])
            records = [record
                       for graph in service.workers[0].engine.qs.graphs.values()
                       for record in graph.metrics.optimizer_records]
            assert [record.batch_size for record in records] == [5]
            assert interned_count() > before
            del service, records
            gc.collect()
            assert interned_count() == before
        finally:
            gc.enable()

    def test_per_expression_memos_die_by_refcount(self, fig1_federation):
        """What the optimizer memoizes *on* an expression holds no
        reference back to it: with the collector off, dropping the last
        user is enough."""
        cost = CostModel(fig1_federation, ExecutionConfig(k=5))
        gc.collect()
        before = interned_count()
        gc.disable()
        try:
            expr = make_chain(
                [("TP", "TP", "", ""), ("E2M", "E2M", "meth_id", "id")],
                [Selection("TP", "name", "contains", "refcount-only")])
            assert cost.est_cardinality(expr) > 0
            assert cost.est_cardinality(expr.induced({"TP"})) > 0
            assert expr.order_key != expr.induced({"TP"}).order_key
            assert interned_count() > before
            del expr
            assert interned_count() == before
        finally:
            gc.enable()
