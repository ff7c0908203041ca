"""Tests for the simulated site databases and federation."""

import pytest

from repro.common.errors import DataError
from repro.data.database import Federation
from repro.plan.expressions import SPJ, Atom, JoinPred, Selection

from tests.conftest import abc_expr, load_triple_federation, make_triple_schema


class TestLoading:
    def test_load_counts(self, triple_federation):
        assert triple_federation.cardinality("A") == 3
        assert triple_federation.cardinality("B") == 4

    def test_missing_attribute_rejected(self):
        federation = Federation(make_triple_schema())
        with pytest.raises(DataError):
            federation.load("A", [{"x": 1}])  # missing name, s

    def test_unknown_relation_rejected(self, triple_federation):
        with pytest.raises(DataError):
            triple_federation.database("s1").load("Z", [])

    def test_site_routing(self, triple_federation):
        assert triple_federation.database_for("A").site == "s1"
        assert triple_federation.database_for("C").site == "s2"

    def test_unknown_site(self, triple_federation):
        with pytest.raises(DataError):
            triple_federation.database("nope")


class TestScan:
    def test_scan_sorted_by_contribution(self, triple_federation):
        rows = triple_federation.database_for("A").scan_sorted("A")
        scores = [r["s"] for r in rows]
        assert scores == sorted(scores, reverse=True)

    def test_scan_with_selection(self, triple_federation):
        database = triple_federation.database_for("A")
        rows = database.scan_sorted(
            "A", [Selection("A", "name", "contains", "protein")]
        )
        assert len(rows) == 2

    def test_scoreless_scan_order_stable(self, triple_federation):
        rows = triple_federation.database_for("B").scan_sorted("B")
        assert [r.tid for r in rows] == [0, 1, 2, 3]


class TestProbe:
    def test_probe_by_key(self, triple_federation):
        rows = triple_federation.database_for("B").probe("B", "x", 2)
        assert len(rows) == 2

    def test_probe_missing_value(self, triple_federation):
        assert triple_federation.database_for("B").probe("B", "x", 99) == []

    def test_probe_unindexed_attr_rejected(self, triple_federation):
        with pytest.raises(DataError):
            triple_federation.database_for("A").probe("A", "name", "alpha")

    def test_probe_results_sorted(self, triple_federation):
        federation = load_triple_federation(rows_c=[
            {"y": 10, "name": "one", "s": 0.1},
            {"y": 10, "name": "two", "s": 0.9},
        ])
        rows = federation.database_for("C").probe("C", "y", 10)
        assert [r["s"] for r in rows] == [0.9, 0.1]


class TestStats:
    def test_stats_fields(self, triple_federation):
        stats = triple_federation.stats("B")
        assert stats.cardinality == 4
        assert stats.distinct_of("x") == 3
        assert stats.max_contribution == 0.0

    def test_score_max(self, triple_federation):
        assert triple_federation.stats("A").max_contribution == 0.9

    def test_distinct_of_unknown_attr_defaults(self, triple_federation):
        stats = triple_federation.stats("A")
        assert stats.distinct_of("name") >= 1


class TestRankedProducer:
    """The lazy producer must replay ``execute_spj`` exactly: same
    tuples, same scores, same order -- it is the hot-path replacement
    for full materialization, and streams gate thresholds on it."""

    def drain(self, producer):
        out = []
        while (tup := producer.result(len(out))) is not None:
            out.append(tup)
        return out

    def assert_identical(self, federation, expr):
        site = federation.site_of_expression(expr)
        database = federation.database(site)
        batch = database.execute_spj(expr)
        lazy = self.drain(database.ranked_producer(expr))
        assert [t.provenance for t in lazy] == \
            [t.provenance for t in batch]
        assert [t.intrinsic for t in lazy] == \
            [t.intrinsic for t in batch]   # bit-identical, no approx
        # Same alias order, so the contributions were summed in the
        # same order.
        assert [(t.shape, t.contribs) for t in lazy] == \
            [(t.shape, t.contribs) for t in batch]

    def test_two_way_join_identical(self, triple_federation):
        self.assert_identical(triple_federation, SPJ(
            [Atom("A", "A"), Atom("B", "B")],
            [JoinPred.normalized("A", "x", "B", "x")],
        ))

    def test_single_atom_identical(self, triple_federation):
        self.assert_identical(triple_federation, SPJ([Atom("A", "A")]))

    def test_with_selection_identical(self, triple_federation):
        self.assert_identical(triple_federation, SPJ(
            [Atom("A", "A"), Atom("B", "B")],
            [JoinPred.normalized("A", "x", "B", "x")],
            [Selection("A", "name", "contains", "protein")],
        ))

    def test_empty_join_identical(self, triple_federation):
        federation = load_triple_federation(rows_c=[])
        expr = SPJ(
            [Atom("C", "C")],
        )
        self.assert_identical(federation, expr)

    def test_gus_pushdowns_identical(self):
        """Realistic check on a generated federation: every single-site
        connected subexpression of real candidate networks replays
        exactly through the lazy producer."""
        from repro.data.gus import GUSConfig, gus_federation
        from repro.data.inverted import InvertedIndex
        from repro.keyword.candidates import CandidateNetworkGenerator
        from repro.service import LoadConfig, generate_load

        federation = gus_federation(GUSConfig(
            n_hubs=4, links_per_extra_hub=2, synonym_every=2,
            satellites_per_hub=1, n_sites=2, min_rows=30, max_rows=80,
            domain_factor=0.4, seed=3))
        index = InvertedIndex(federation)
        load = generate_load(federation, LoadConfig(
            n_queries=6, rate_qps=10.0, k=5, n_templates=4,
            vocabulary_size=10, seed=2), index=index)
        generator = CandidateNetworkGenerator(federation, index=index)
        seen: set = set()
        checked = 0
        for kq in load:
            for cq in generator.generate(kq).cqs:
                for sub in cq.expr.connected_subexpressions(max_size=3):
                    if sub in seen:
                        continue
                    seen.add(sub)
                    if federation.site_of_expression(sub) is None:
                        continue
                    self.assert_identical(federation, sub)
                    checked += 1
        assert checked >= 5

    def test_prefix_production_is_lazy(self, triple_federation):
        expr = SPJ(
            [Atom("A", "A"), Atom("B", "B")],
            [JoinPred.normalized("A", "x", "B", "x")],
        )
        site = triple_federation.site_of_expression(expr)
        producer = triple_federation.database(site).ranked_producer(expr)
        first = producer.result(0)
        batch = triple_federation.execute_spj(expr)
        assert first.provenance == batch[0].provenance
        # The producer pulled only what the bound proof required.
        database = triple_federation.database(site)
        total_rows = sum(len(database.scan_sorted(atom.relation))
                         for atom in expr.atoms)
        pulled = sum(target.module.size for target in producer.inputs)
        assert pulled <= total_rows


class TestExecuteSPJ:
    def test_single_site_join(self, triple_federation):
        expr = SPJ(
            [Atom("A", "A"), Atom("B", "B")],
            [JoinPred.normalized("A", "x", "B", "x")],
        )
        results = triple_federation.execute_spj(expr)
        assert len(results) == 4  # A1-B(1,10), A2-B(2,10), A2-B(2,20), A3-B(3,30)

    def test_results_sorted_by_intrinsic(self, triple_federation):
        expr = SPJ(
            [Atom("A", "A"), Atom("B", "B")],
            [JoinPred.normalized("A", "x", "B", "x")],
        )
        scores = [t.intrinsic for t in triple_federation.execute_spj(expr)]
        assert scores == sorted(scores, reverse=True)

    def test_selection_applied(self, triple_federation):
        expr = SPJ(
            [Atom("A", "A"), Atom("B", "B")],
            [JoinPred.normalized("A", "x", "B", "x")],
            [Selection("A", "name", "contains", "beta")],
        )
        results = triple_federation.execute_spj(expr)
        assert len(results) == 2
        assert all(t.value("A", "name") == "beta gene" for t in results)

    def test_cross_site_rejected(self, triple_federation):
        with pytest.raises(DataError):
            triple_federation.execute_spj(abc_expr())

    def test_disconnected_rejected(self, triple_federation):
        expr = SPJ([Atom("A", "A"), Atom("B", "B")])
        with pytest.raises(DataError):
            triple_federation.database("s1").execute_spj(expr)

    def test_site_of_expression(self, triple_federation):
        expr = SPJ(
            [Atom("A", "A"), Atom("B", "B")],
            [JoinPred.normalized("A", "x", "B", "x")],
        )
        assert triple_federation.site_of_expression(expr) == "s1"
        assert triple_federation.site_of_expression(abc_expr()) is None

    def test_empty_join_result(self):
        federation = load_triple_federation(rows_b=[{"x": 99, "y": 99}])
        expr = SPJ(
            [Atom("A", "A"), Atom("B", "B")],
            [JoinPred.normalized("A", "x", "B", "x")],
        )
        assert federation.execute_spj(expr) == []

    def test_single_atom_execute(self, triple_federation):
        expr = SPJ([Atom("A", "A")])
        results = triple_federation.execute_spj(expr)
        assert len(results) == 3
        assert results[0].intrinsic == 0.9

    def test_validate_against_schema(self, triple_federation):
        """Every schema relation is hosted at one of the sites."""
        sites = set(triple_federation.sites)
        assert {r.site for r in triple_federation.schema.relations} <= sites
