"""Tests for the adaptive m-join node: correctness of the symmetric
hash join, bounded release order, corner-bound validity, probing, and
state seeding (the Algorithm 2 recovery join): a ranked stream over
the suppliers' graft-time prefixes, run into the module only when a
parent grafts."""

import itertools
import math
import sys

import pytest

from repro.common.clock import VirtualClock
from repro.common.config import DelayModel
from repro.common.errors import ExecutionError
from repro.common.rng import make_rng
from repro.data.rows import Row, STuple
from repro.data.sources import EXHAUSTED, ListSource, RandomAccessSource
from repro.operators.access import AccessModule
from repro.operators.nodes import InputUnit, MJoinNode, ProbeTarget, RecoveryUnit
from repro.plan.expressions import SPJ, Atom, JoinPred
from repro.obs import Metrics

from tests.conftest import load_triple_federation

DELAYS = DelayModel(deterministic=True)


def stuples(alias, relation, rows):
    """rows: list of (tid, values, score), sorted desc by score."""
    return [
        STuple.single(alias, Row(relation, tid, values), score)
        for tid, values, score in rows
    ]


def make_unit(name, alias, relation, rows, clock, metrics):
    expr = SPJ([Atom(alias, relation)])
    source = ListSource(name, stuples(alias, relation, rows))
    return InputUnit(name, expr, source, clock, metrics, DELAYS)


class Collector:
    """A consumer that records everything a supplier releases."""

    def __init__(self):
        self.received = []

    def on_arrival(self, supplier, tup):
        self.received.append(tup)


def two_way_setup(rows_a, rows_b):
    clock = VirtualClock()
    metrics = Metrics()
    unit_a = make_unit("uA", "A", "A", rows_a, clock, metrics)
    unit_b = make_unit("uB", "B", "B", rows_b, clock, metrics)
    expr = SPJ(
        [Atom("A", "A"), Atom("B", "B")],
        [JoinPred.normalized("A", "x", "B", "x")],
    )
    epoch = itertools.count(1)
    node = MJoinNode(
        "join", expr, [unit_a, unit_b], [],
        caps={"A": 1.0, "B": 1.0},
        clock=clock, metrics=metrics, delays=DELAYS,
    )
    unit_a.consumers.append(node)
    unit_b.consumers.append(node)
    sink = Collector()
    node.consumers.append(sink)
    return unit_a, unit_b, node, sink


ROWS_A = [(1, {"x": 1}, 0.9), (2, {"x": 2}, 0.6), (3, {"x": 1}, 0.2)]
ROWS_B = [(1, {"x": 1}, 0.8), (2, {"x": 2}, 0.5), (3, {"x": 9}, 0.1)]


def drain(units, node):
    """Read everything round-robin and release until fixpoint."""
    progressed = True
    while progressed:
        progressed = False
        for unit in units:
            if unit.read_and_route(1) is not None:
                progressed = True
            while node.release_ready():
                progressed = True
    while node.release_ready():
        pass


class TestJoinCorrectness:
    def test_matches_nested_loop(self):
        unit_a, unit_b, node, sink = two_way_setup(ROWS_A, ROWS_B)
        drain([unit_a, unit_b], node)
        expected = set()
        for ta, tb in itertools.product(
                stuples("A", "A", ROWS_A), stuples("B", "B", ROWS_B)):
            if ta.value("A", "x") == tb.value("B", "x"):
                expected.add(ta.merge(tb))
        assert set(sink.received) == expected
        assert len(sink.received) == len(expected)  # no duplicates

    def test_release_order_nonincreasing(self):
        unit_a, unit_b, node, sink = two_way_setup(ROWS_A, ROWS_B)
        drain([unit_a, unit_b], node)
        scores = [t.intrinsic for t in sink.received]
        assert scores == sorted(scores, reverse=True)

    def test_released_only_when_no_future_beats(self):
        unit_a, unit_b, node, sink = two_way_setup(ROWS_A, ROWS_B)
        # Read only the top tuple of each: result (A1,B1) score 1.7.
        unit_a.read_and_route(1)
        unit_b.read_and_route(1)
        node.release_ready()
        # corner bound: next A (0.6) + capB (1.0) = 1.6 < 1.7 -> released
        assert [t.intrinsic for t in sink.received] == [pytest.approx(1.7)]

    def test_buffered_while_future_could_beat(self):
        rows_a = [(1, {"x": 1}, 0.9), (2, {"x": 2}, 0.85)]
        rows_b = [(1, {"x": 1}, 0.2)]
        unit_a, unit_b, node, sink = two_way_setup(rows_a, rows_b)
        unit_a.read_and_route(1)
        unit_b.read_and_route(1)
        node.release_ready()
        # (A1,B1)=1.1 but unread A2 could join a future B at cap 1.0
        # -> corner = 0.85 + 1.0 = 1.85 > 1.1: must stay buffered.
        assert sink.received == []
        assert node.buffered == 1

    def test_exhaustion_releases_everything(self):
        unit_a, unit_b, node, sink = two_way_setup(ROWS_A, ROWS_B)
        drain([unit_a, unit_b], node)
        assert node.buffered == 0
        assert node.bound() == -math.inf
        assert node.exhausted

    def test_bound_reflects_buffer_top(self):
        rows_a = [(1, {"x": 1}, 0.9), (2, {"x": 2}, 0.85)]
        rows_b = [(1, {"x": 1}, 0.2)]
        unit_a, unit_b, node, _sink = two_way_setup(rows_a, rows_b)
        unit_a.read_and_route(1)
        unit_b.read_and_route(1)
        assert node.bound() >= 1.1

    def test_preferred_supplier_attains_corner(self):
        unit_a, unit_b, node, _sink = two_way_setup(ROWS_A, ROWS_B)
        # bounds: A 0.9, B 0.8, caps 1.0 each: A-side corner 1.9 wins.
        assert node.preferred_supplier() is unit_a

    def test_preferred_supplier_skips_exhausted(self):
        unit_a, unit_b, node, _sink = two_way_setup(ROWS_A, ROWS_B)
        while unit_a.read_and_route(1):
            pass
        assert node.preferred_supplier() is unit_b


class TestValidation:
    def test_overlapping_suppliers_rejected(self):
        clock, metrics = VirtualClock(), Metrics()
        unit1 = make_unit("u1", "A", "A", ROWS_A, clock, metrics)
        unit2 = make_unit("u2", "A", "A", ROWS_A, clock, metrics)
        expr = SPJ([Atom("A", "A")])
        with pytest.raises(ExecutionError):
            MJoinNode("bad", expr, [unit1, unit2], [], {"A": 1.0},
                      clock, metrics, DELAYS)

    def test_uncovered_alias_rejected(self):
        clock, metrics = VirtualClock(), Metrics()
        unit = make_unit("u1", "A", "A", ROWS_A, clock, metrics)
        expr = SPJ(
            [Atom("A", "A"), Atom("B", "B")],
            [JoinPred.normalized("A", "x", "B", "x")],
        )
        with pytest.raises(ExecutionError):
            MJoinNode("bad", expr, [unit], [], {"A": 1.0, "B": 1.0},
                      clock, metrics, DELAYS)

    def test_disconnected_target_rejected(self):
        clock, metrics = VirtualClock(), Metrics()
        unit_a = make_unit("uA", "A", "A", ROWS_A, clock, metrics)
        unit_b = make_unit("uB", "B", "B", ROWS_B, clock, metrics)
        expr = SPJ([Atom("A", "A"), Atom("B", "B")])  # no join pred
        with pytest.raises(ExecutionError):
            MJoinNode("bad", expr, [unit_a, unit_b], [],
                      {"A": 1.0, "B": 1.0}, clock, metrics, DELAYS)


class TestProbeTargets:
    def make_three_way(self, federation):
        """A |X| B |X| C with B probed remotely."""
        clock = VirtualClock()
        metrics = Metrics()
        db1 = federation.database("s1")
        rows_a = [
            (r.tid, dict(r.values), db1.contribution("A", r.tid))
            for r in db1.scan_sorted("A")
        ]
        db2 = federation.database("s2")
        rows_c = [
            (r.tid, dict(r.values), db2.contribution("C", r.tid))
            for r in db2.scan_sorted("C")
        ]
        unit_a = make_unit("uA", "A", "A", rows_a, clock, metrics)
        unit_c = make_unit("uC", "C", "C", rows_c, clock, metrics)
        ra = RandomAccessSource("raB", "B", db1, clock, metrics, DELAYS,
                                make_rng(0, "ra"))
        target = ProbeTarget("tB", frozenset({"B"}), "random",
                             ra_source=ra, ra_alias="B")
        expr = SPJ(
            [Atom("A", "A"), Atom("B", "B"), Atom("C", "C")],
            [JoinPred.normalized("A", "x", "B", "x"),
             JoinPred.normalized("B", "y", "C", "y")],
        )
        node = MJoinNode(
            "abc", expr, [unit_a, unit_c], [target],
            caps={"A": 0.9, "B": 0.0, "C": 0.8},
            clock=clock, metrics=metrics, delays=DELAYS,
        )
        unit_a.consumers.append(node)
        unit_c.consumers.append(node)
        sink = Collector()
        node.consumers.append(sink)
        return unit_a, unit_c, node, sink, metrics

    def test_three_way_with_probe_matches_reference(self, triple_federation):
        from repro.reference import evaluate_spj

        unit_a, unit_c, node, sink, _m = self.make_three_way(
            triple_federation)
        drain([unit_a, unit_c], node)
        expected = set(evaluate_spj(triple_federation, node.expr))
        assert set(sink.received) == expected
        assert len(sink.received) == len(expected)

    def test_probe_metrics_recorded(self, triple_federation):
        unit_a, unit_c, node, _sink, metrics = self.make_three_way(
            triple_federation)
        drain([unit_a, unit_c], node)
        assert metrics.probes_performed > 0
        assert metrics.join_probes > 0

    def test_three_way_release_sorted(self, triple_federation):
        unit_a, unit_c, node, sink, _m = self.make_three_way(
            triple_federation)
        drain([unit_a, unit_c], node)
        scores = [t.intrinsic for t in sink.received]
        assert scores == sorted(scores, reverse=True)


def seeded(node):
    """Every result of ``node``'s pending seed, in stream order."""
    node.seed.result(sys.maxsize)
    return node.seed.emitted


def second_node(node):
    """A second m-join over ``node``'s suppliers, grafted and seeded."""
    node2 = MJoinNode(
        "join2", node.expr, node.suppliers, [],
        caps={"A": 1.0, "B": 1.0},
        clock=node.clock, metrics=Metrics(), delays=DELAYS,
    )
    node2.seed_from_suppliers()
    return node2


def nested(rows_a, rows_b):
    return {ta.merge(tb) for ta, tb in itertools.product(
        stuples("A", "A", rows_a), stuples("B", "B", rows_b))
        if ta.value("A", "x") == tb.value("B", "x")}


class TestSeeding:
    def test_seed_reproduces_existing_joins(self):
        unit_a, unit_b, node, sink = two_way_setup(ROWS_A, ROWS_B)
        drain([unit_a, unit_b], node)
        read = node.metrics.stream_tuples_read
        # A second node over the same (now fully read) units: its
        # drained seed reproduces every result without any reads.
        node2 = second_node(node)
        assert len(seeded(node2)) == len(sink.received)
        assert set(seeded(node2)) == set(sink.received)
        assert node.metrics.stream_tuples_read == read

    def test_seed_results_sorted(self):
        unit_a, unit_b, node, _sink = two_way_setup(ROWS_A, ROWS_B)
        drain([unit_a, unit_b], node)
        scores = [t.intrinsic for t in seeded(second_node(node))]
        assert scores == sorted(scores, reverse=True)

    def test_seed_empty_supplier_produces_nothing(self):
        unit_a, _unit_b, node, _sink = two_way_setup(ROWS_A, ROWS_B)
        unit_a.read_and_route(1)  # only A has stored tuples
        node2 = second_node(node)
        assert node2.seed is None
        assert node2.materialize_seed() == 0

    def test_partial_seed_then_live_no_duplicates(self):
        unit_a, unit_b, node, sink = two_way_setup(ROWS_A, ROWS_B)
        # Read a prefix, then create a second consumer node that seeds,
        # then finish the streams: its seed and its live output together
        # are the full join exactly once.
        unit_a.read_and_route(1)
        unit_b.read_and_route(1)
        node.release_ready()
        node2 = second_node(node)
        sink2 = Collector()
        node2.consumers.append(sink2)
        unit_a.consumers.append(node2)
        unit_b.consumers.append(node2)
        progressed = True
        while progressed:
            progressed = False
            for unit in (unit_a, unit_b):
                if unit.read_and_route(2) is not None:
                    progressed = True
            while node2.release_ready() or node.release_ready():
                progressed = True
        live, seed = node2.module.replay(), seeded(node2)
        assert set(live) | set(seed) == nested(ROWS_A, ROWS_B)
        assert len(live) + len(seed) == len(nested(ROWS_A, ROWS_B))

    def test_two_supplier_seed_waits_for_a_parent(self):
        """A graft over two stored suppliers puts nothing into its
        module; tuples the suppliers receive after it arrive live and
        never enter the seed, which runs into the module only when a
        parent grafts (``materialize_seed``)."""
        unit_a, unit_b, node, _sink = two_way_setup(ROWS_A, ROWS_B)
        for _ in range(2):
            unit_a.read_and_route(1)
            unit_b.read_and_route(1)
        node.release_ready()
        node2 = second_node(node)
        assert node2.seed is not None
        assert node2.module.size == 0
        unit_a.consumers.append(node2)
        unit_b.consumers.append(node2)
        drain([unit_a, unit_b], node2)
        at_graft = nested(ROWS_A[:2], ROWS_B[:2])
        assert set(seeded(node2)) == at_graft
        live = set(node2.module.replay())
        assert live == nested(ROWS_A, ROWS_B) - at_graft
        assert node2.materialize_seed() == len(at_graft)
        assert set(node2.module.replay()) == nested(ROWS_A, ROWS_B)


#: A's rows for ranked recovery: x values collide, so several driving
#: tuples join the same B rows and their results interleave in score.
ROWS_RA = [(1, {"x": 1}, 0.9), (2, {"x": 2}, 0.85), (3, {"x": 1}, 0.5),
           (4, {"x": 2}, 0.4), (5, {"x": 1}, 0.3), (6, {"x": 2}, 0.1)]
ROWS_RB = [(1, {"x": 1}, 0.05), (2, {"x": 1}, 0.7), (3, {"x": 2}, 0.6),
           (4, {"x": 2}, 0.2), (5, {"x": 9}, 1.0)]


def probe_setup(read_before_graft):
    """A |X| B over one stream supplier (A) and a probe target on B,
    grafted after ``read_before_graft`` A tuples were stored."""
    clock, metrics = VirtualClock(), Metrics()
    unit_a = make_unit("uA", "A", "A", ROWS_RA, clock, metrics)
    for _ in range(read_before_graft):
        unit_a.read_and_route(1)
    module_b = AccessModule("module:B")
    for tup in stuples("B", "B", ROWS_RB):
        module_b.insert(tup)
    node = MJoinNode(
        "ab", SPJ([Atom("A", "A"), Atom("B", "B")],
                  [JoinPred.normalized("A", "x", "B", "x")]),
        [unit_a], [ProbeTarget("tB", frozenset({"B"}), "module",
                               module=module_b)],
        caps={"A": 1.0, "B": 1.0},
        clock=clock, metrics=metrics, delays=DELAYS,
    )
    unit_a.consumers.append(node)
    node.seed_from_suppliers()
    return unit_a, node


def joined(rows_a):
    """Every A |X| B result over ``rows_a`` (the eager seed's multiset)."""
    return sorted(
        (ta.merge(tb) for ta in stuples("A", "A", rows_a)
         for tb in stuples("B", "B", ROWS_RB)
         if ta.value("A", "x") == tb.value("B", "x")),
        key=lambda t: -t.intrinsic)


class TestRankedRecovery:
    def test_single_supplier_seed_stays_pending(self):
        _unit, node = probe_setup(4)
        assert node.seed is not None
        assert node.module.size == 0

    def test_stream_is_the_eager_multiset_in_order(self):
        _unit, node = probe_setup(4)
        results = seeded(node)
        assert set(results) == set(joined(ROWS_RA[:4]))
        assert len(results) == len(joined(ROWS_RA[:4]))
        scores = [t.intrinsic for t in results]
        assert scores == sorted(scores, reverse=True)

    def test_bound_is_the_next_read_at_every_step(self):
        _unit, node = probe_setup(len(ROWS_RA))
        recovery = RecoveryUnit("rec", node.expr, [], node.metrics,
                                seed=node.seed)
        sink = Collector()
        recovery.consumers.append(sink)
        while True:
            bound = recovery.bound()
            tup = recovery.read_and_route(2)
            if tup is None:
                assert bound == EXHAUSTED
                break
            assert bound == tup.intrinsic
        assert [t.intrinsic for t in sink.received] \
            == [t.intrinsic for t in joined(ROWS_RA)]

    def test_reads_only_as_deep_as_pulled(self):
        _unit, node = probe_setup(len(ROWS_RA))
        assert node.seed.result(0).intrinsic == joined(ROWS_RA)[0].intrinsic
        # The top result needs the top A tuple, and the corner of the
        # next one (0.85 + 1.0) is above it, so that one is joined too;
        # nothing below is.
        assert node.seed.held < len(joined(ROWS_RA))

    def test_seed_covers_the_graft_prefix_and_live_the_rest(self):
        unit_a, node = probe_setup(3)
        sink = Collector()
        node.consumers.append(sink)
        while unit_a.read_and_route(2) is not None:
            node.release_ready()
        node.release_ready()
        results = seeded(node)
        assert set(results) == set(joined(ROWS_RA[:3]))
        assert set(results).isdisjoint(sink.received)
        assert set(results) | set(sink.received) == set(joined(ROWS_RA))

    def test_readers_share_the_memo_from_the_top(self):
        _unit, node = probe_setup(len(ROWS_RA))
        first = RecoveryUnit("r1", node.expr, [], node.metrics,
                             seed=node.seed)
        for _ in range(3):
            first.read_and_route(2)
        second = RecoveryUnit("r2", node.expr, [], node.metrics,
                              seed=node.seed)
        sink = Collector()
        second.consumers.append(sink)
        while second.read_and_route(2) is not None:
            pass
        assert sink.received == node.seed.emitted
        assert len(sink.received) == len(joined(ROWS_RA))

    def test_materialize_runs_the_rest_into_the_module(self):
        _unit, node = probe_setup(len(ROWS_RA))
        seed = node.seed
        reader = RecoveryUnit("r", node.expr, [], node.metrics, seed=seed)
        reader.read_and_route(2)
        assert node.materialize_seed() == len(joined(ROWS_RA))
        assert node.seed is None
        assert set(node.module.replay()) == set(joined(ROWS_RA))
        # A reader that started before keeps reading the memo.
        rest = []
        while (tup := reader.read_and_route(2)) is not None:
            rest.append(tup)
        assert len(rest) == len(joined(ROWS_RA)) - 1
