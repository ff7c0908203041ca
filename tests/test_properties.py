"""Property-based tests (hypothesis) for the core invariants:

* the m-join equals a nested-loop join on arbitrary inputs, in any
  arrival order, and releases in nonincreasing intrinsic order;
* the rank-merge + threshold machinery returns exactly the brute-force
  top-k on arbitrary two-stream inputs;
* access-module probes equal linear scans;
* monotone score bounds dominate all reachable scores.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import VirtualClock
from repro.common.config import DelayModel
from repro.data.rows import Row, STuple
from repro.data.sources import ListSource
from repro.keyword.queries import ConjunctiveQuery, UserQuery
from repro.operators.access import AccessModule
from repro.operators.nodes import InputUnit, MJoinNode
from repro.operators.rankmerge import RankMerge
from repro.plan.expressions import SPJ, Atom, JoinPred, Selection, union_of
from repro.scoring.base import MonotoneScore
from repro.obs import Metrics

DELAYS = DelayModel(deterministic=True)

# Strategy: a small relation = list of (join key, score).
relation_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4),
              st.floats(min_value=0.0, max_value=1.0,
                        allow_nan=False, width=32)),
    min_size=0, max_size=8,
)


def build_unit(name, alias, relation, rows, clock, metrics):
    ordered = sorted(rows, key=lambda r: -r[1])
    tuples = [
        STuple.single(alias, Row(relation, tid, {"x": key, "s": score}),
                      score)
        for tid, (key, score) in enumerate(ordered)
    ]
    expr = SPJ([Atom(alias, relation)])
    source = ListSource(name, tuples)
    return InputUnit(name, expr, source, clock, metrics, DELAYS)


def build_join(rows_a, rows_b):
    clock, metrics = VirtualClock(), Metrics()
    unit_a = build_unit("uA", "A", "A", rows_a, clock, metrics)
    unit_b = build_unit("uB", "B", "B", rows_b, clock, metrics)
    expr = SPJ(
        [Atom("A", "A"), Atom("B", "B")],
        [JoinPred.normalized("A", "x", "B", "x")],
    )
    node = MJoinNode(
        "j", expr, [unit_a, unit_b], [], {"A": 1.0, "B": 1.0},
        clock, metrics, DELAYS,
    )
    unit_a.consumers.append(node)
    unit_b.consumers.append(node)
    received = []

    class Sink:
        def on_arrival(self, supplier, tup):
            received.append(tup)

    node.consumers.append(Sink())
    return unit_a, unit_b, node, received


def nested_loop(rows_a, rows_b):
    expected = set()
    ordered_a = sorted(rows_a, key=lambda r: -r[1])
    ordered_b = sorted(rows_b, key=lambda r: -r[1])
    for (tid_a, (ka, sa)), (tid_b, (kb, sb)) in itertools.product(
            enumerate(ordered_a), enumerate(ordered_b)):
        if ka == kb:
            left = STuple.single("A", Row("A", tid_a, {"x": ka, "s": sa}), sa)
            right = STuple.single("B", Row("B", tid_b, {"x": kb, "s": sb}), sb)
            expected.add(left.merge(right))
    return expected


class TestMJoinProperties:
    @given(relation_rows, relation_rows, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_mjoin_equals_nested_loop_any_order(self, rows_a, rows_b, rnd):
        unit_a, unit_b, node, received = build_join(rows_a, rows_b)
        units = [unit_a, unit_b]
        while any(u.readable() for u in units):
            candidates = [u for u in units if u.readable()]
            unit = rnd.choice(candidates)
            unit.read_and_route(1)
            node.release_ready()
        while node.release_ready():
            pass
        expected = nested_loop(rows_a, rows_b)
        assert set(received) == expected
        assert len(received) == len(expected)

    @given(relation_rows, relation_rows)
    @settings(max_examples=60, deadline=None)
    def test_release_order_nonincreasing(self, rows_a, rows_b):
        unit_a, unit_b, node, received = build_join(rows_a, rows_b)
        while unit_a.readable() or unit_b.readable():
            for unit in (unit_a, unit_b):
                if unit.readable():
                    unit.read_and_route(1)
                    node.release_ready()
        while node.release_ready():
            pass
        scores = [t.intrinsic for t in received]
        for earlier, later in zip(scores, scores[1:]):
            assert later <= earlier + 1e-9

    @given(relation_rows, relation_rows)
    @settings(max_examples=40, deadline=None)
    def test_corner_bound_dominates_unreleased(self, rows_a, rows_b):
        unit_a, unit_b, node, received = build_join(rows_a, rows_b)
        unit_a.read_and_route(1)
        unit_b.read_and_route(1)
        node.release_ready()
        corner = node.corner_bound()
        remaining = nested_loop(rows_a, rows_b) - set(received)
        for tup in remaining:
            # every unproduced-or-unreleased result is bounded
            if tup in {t for _n, _s, t in node.join._heap}:
                continue
            assert tup.intrinsic <= corner + 1e-9


class TestRankMergeProperties:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0,
                           allow_nan=False, width=32),
                 min_size=0, max_size=10),
        st.lists(st.floats(min_value=0.0, max_value=1.0,
                           allow_nan=False, width=32),
                 min_size=0, max_size=10),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_topk_equals_sorted_pool(self, scores1, scores2, k):
        scores1 = sorted(scores1, reverse=True)
        scores2 = sorted(scores2, reverse=True)

        def make_stream(name, relation, scores):
            tuples = [
                STuple.single(relation,
                              Row(relation, i, {"x": i}), s)
                for i, s in enumerate(scores)
            ]
            return ListSource(name, tuples)

        def make_cq(cq_id, relation):
            expr = SPJ([Atom(relation, relation)])
            score = MonotoneScore({relation: 1.0}, 0.0, "identity",
                                  {relation: 1.0})
            return ConjunctiveQuery(cq_id, "U", expr, score)

        cq1, cq2 = make_cq("c1", "R"), make_cq("c2", "S")
        uq = UserQuery("U", ("kw",), [cq1, cq2], k=k)
        rm = RankMerge(uq)

        class StreamSupplier:
            def __init__(self, name, relation, source):
                self.name = name
                self.expr = SPJ([Atom(relation, relation)])
                self.consumers = []
                self.module = None
                self.source = source

            def bound(self):
                return self.source.bound()

            def pump(self):
                tup = self.source.read()
                if tup is not None:
                    for consumer in self.consumers:
                        consumer.on_arrival(self, tup)
                return tup

        s1 = StreamSupplier("s1", "R", make_stream("s1", "R", scores1))
        s2 = StreamSupplier("s2", "S", make_stream("s2", "S", scores2))
        rm.register_stream(cq1, s1)
        rm.register_stream(cq2, s2)
        suppliers = {"s1": s1, "s2": s2}
        # Drive via the rank-merge's own preference until completion.
        for _ in range(200):
            if rm.complete:
                break
            rm.try_emit()
            if rm.complete:
                break
            entry = rm.preferred_entry()
            if entry is None:
                if rm.all_streams_done():
                    rm.finalize()
                break
            suppliers[entry.supplier.name].pump()
        rm.try_emit()
        if not rm.complete and rm.all_streams_done():
            rm.finalize()
        got = [c.score for c in rm.emitted]
        want = sorted(scores1 + scores2, reverse=True)[:k]
        assert got == pytest.approx(want)


class TestModuleProperties:
    @given(st.lists(st.integers(min_value=0, max_value=3),
                    min_size=0, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_probe_equals_linear_scan(self, keys):
        module = AccessModule("m", (("a", "x"),))
        stored = []
        for tid, key in enumerate(keys):
            tup = STuple.single("a", Row("R", tid, {"x": key}), 0.0)
            module.insert(tup)
            stored.append(tup)
        for key in range(4):
            want = [tup for tup in stored if tup.value("a", "x") == key]
            assert module.probe("a", "x", key) == want


class TestScoreBoundProperties:
    @given(
        st.dictionaries(st.sampled_from(["A", "B", "C"]),
                        st.floats(min_value=0.0, max_value=2.0,
                                  allow_nan=False, width=32),
                        min_size=3, max_size=3),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False,
                  width=32),
        st.sampled_from(["identity", "exp2"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_bound_dominates_any_completion(self, weights, static,
                                            transform):
        caps = {"A": 1.0, "B": 0.5, "C": 0.8}
        score = MonotoneScore(weights, static, transform, caps)
        known = {"A": 0.3}
        bound = score.bound(known)
        # any full completion within caps scores at most `bound`
        for b_value in (0.0, 0.25, 0.5):
            for c_value in (0.0, 0.4, 0.8):
                tup = STuple(
                    {"A": Row("A", 1, {}), "B": Row("B", 2, {}),
                     "C": Row("C", 3, {})},
                    {"A": 0.3, "B": b_value, "C": c_value},
                )
                assert score.score(tup) <= bound + 1e-9


@st.composite
def spj_parts(draw):
    """Atoms, joins and selections of an arbitrary small expression
    (not necessarily connected), in the order drawn."""
    aliases = [f"t{i}" for i in range(draw(st.integers(1, 5)))]
    atoms = [Atom(a, draw(st.sampled_from("RST"))) for a in aliases]
    attr = st.sampled_from("xy")
    pairs = list(itertools.combinations(aliases, 2))
    joins = [
        JoinPred.normalized(a, draw(attr), b, draw(attr))
        for a, b in (draw(st.lists(st.sampled_from(pairs), max_size=6))
                     if pairs else [])
    ]
    selections = draw(st.lists(
        st.builds(Selection, st.sampled_from(aliases), attr,
                  st.sampled_from(["eq", "ge"]), st.integers(0, 3)),
        max_size=4))
    return atoms, joins, selections


class TestInterningProperties:
    """A hash-consed value answers for everyone who builds it, so what
    it is may depend on its value only -- never on the order or
    multiplicity of the parts it was built from, nor on its parent."""

    @given(spj_parts(), st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_any_arrangement_is_the_same_object(self, parts, rnd):
        atoms, joins, selections = parts
        first = SPJ(atoms, joins, selections)
        rearranged = []
        for items, may_repeat in ((atoms, False), (joins, True),
                                  (selections, True)):
            items = list(items)
            if may_repeat and items:
                items += rnd.choices(items, k=3)
            rnd.shuffle(items)
            rearranged.append(items)
        again = SPJ(*rearranged)
        assert again is first
        assert again.joins == tuple(sorted(set(joins)))
        assert again.selections == tuple(sorted(set(selections)))

    @given(spj_parts(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_induced_is_shared_across_parents(self, parts, data):
        atoms, joins, selections = parts
        expr = SPJ(atoms, joins, selections)
        anchor = data.draw(st.sampled_from(expr.aliases))
        wider = union_of([expr, SPJ([Atom("zz", "U")])],
                         [JoinPred.normalized(anchor, "x", "zz", "x")])
        narrower = SPJ(atoms, joins, selections + [
            Selection(anchor, "extra", "eq", 1)])
        subset = frozenset(data.draw(st.sets(
            st.sampled_from(expr.aliases), min_size=1)))
        fragment = expr.induced(subset)
        assert wider.induced(subset) is fragment
        assert wider.induced(expr.aliases) is expr
        if anchor not in subset:
            assert narrower.induced(subset) is fragment
        assert fragment == SPJ(
            [a for a in atoms if a.alias in subset],
            [j for j in joins
             if {j.left_alias, j.right_alias} <= subset],
            [s for s in selections if s.alias in subset])
