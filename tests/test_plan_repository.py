"""The incremental plan repository: signatures, interning, memoization.

Four invariants pin the tentpole:

* the template signature is *canonical*: invariant under keyword
  order/case and alias renaming (hypothesis), and signature-equal CQs
  produce structurally identical candidate sets;
* expansion interning is transparent: a repeated keyword set yields the
  same user query under fresh ids, without re-enumerating join trees;
* memoized optimization is transparent: a cache hit replays exactly the
  plan an uncached run would derive -- including across query-id
  relabeling in the per-query scopes;
* the reuse fingerprint guards state-dependence: when prior reads
  change the best plan, the repository re-optimizes rather than serving
  the cached one.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import DelayModel, ExecutionConfig, SharingMode
from repro.common.errors import QueryError
from repro.data.database import Federation
from repro.data.inverted import InvertedIndex
from repro.data.schema import Attribute, Relation, Schema, SchemaEdge
from repro.keyword.candidates import CandidateNetworkGenerator
from repro.keyword.queries import ConjunctiveQuery, KeywordQuery, UserQuery
from repro.optimizer.candidates import (
    driving_stream_aliases,
    enumerate_candidates,
)
from repro.optimizer.cost import CostModel, ReuseOracle
from repro.optimizer.repository import PlanRepository
from repro.plan.expressions import SPJ, Atom, JoinPred, Selection
from repro.scoring.base import MonotoneScore
from repro.service.telemetry import Telemetry
from repro.obs import OptimizerRecord

from tests.conftest import TINY_FIG1_CARDS, abc_expr, load_triple_federation, make_cq

K = 6


@pytest.fixture(scope="module")
def fed():
    from repro.data.figure1 import figure1_federation
    return figure1_federation(seed=7, cardinalities=dict(TINY_FIG1_CARDS),
                              domain_factor=0.7)


@pytest.fixture(scope="module")
def index(fed):
    return InvertedIndex(fed)


def config_for(mode, **overrides):
    return ExecutionConfig(mode=mode, k=K, seed=1,
                           delays=DelayModel(deterministic=True),
                           **overrides)


# -- a one-site chain federation with two overlapping push-down
# -- candidates, for the reuse-fingerprint plan-flip scenario ---------------


def one_site_chain_federation(seed=5) -> Federation:
    relations = [
        Relation("A", (Attribute("x", is_key=True),
                       Attribute("name", is_text=True),
                       Attribute("s", is_score=True)),
                 site="s1", node_cost=0.2),
        Relation("B", (Attribute("x", is_key=True),
                       Attribute("y", is_key=True)),
                 site="s1", node_cost=0.3),
        Relation("C", (Attribute("y", is_key=True),
                       Attribute("name", is_text=True),
                       Attribute("s", is_score=True)),
                 site="s1", node_cost=0.2),
    ]
    edges = [SchemaEdge("A", "x", "B", "x", cost=0.5, kind="fk"),
             SchemaEdge("B", "y", "C", "y", cost=0.5, kind="fk")]
    fed = Federation(Schema(relations, edges))
    # repro: allow[rng-discipline] -- the fixture corpus is pinned to
    # this exact Random(seed) stream; re-deriving it via make_rng
    # would regenerate every table these tests assert against
    rng = random.Random(seed)
    fed.load("A", [{"x": rng.randrange(12), "name": f"a{i} protein",
                    "s": rng.random()} for i in range(40)])
    fed.load("B", [{"x": rng.randrange(12), "y": rng.randrange(12)}
                   for i in range(50)])
    fed.load("C", [{"y": rng.randrange(12), "name": f"c{i} membrane",
                    "s": rng.random()} for i in range(40)])
    return fed


def chain_cq(cq_id="cq0", uq_id="uq0") -> ConjunctiveQuery:
    expr = SPJ(
        [Atom("A", "A"), Atom("B", "B"), Atom("C", "C")],
        [JoinPred.normalized("A", "x", "B", "x"),
         JoinPred.normalized("B", "y", "C", "y")],
        [Selection("A", "name", "contains", "protein"),
         Selection("C", "name", "contains", "membrane")],
    )
    caps = {alias: 1.0 for alias in expr.aliases}
    score = MonotoneScore({alias: 1.0 for alias in expr.aliases}, 0.0,
                          "identity", caps)
    return ConjunctiveQuery(cq_id, uq_id, expr, score)


class ReadingOracle(ReuseOracle):
    """A stub QS-manager oracle with scripted prior readings."""

    def __init__(self, readings):
        self.readings = readings

    def tuples_already_read(self, expr):
        return self.readings.get(expr, 0)


def plan_shape(plan):
    """Everything observable about a factorized plan, for equality."""
    return (
        sorted(plan.sources),
        sorted(
            (comp_id, spec.expr, spec.stream_children, spec.probe_atoms,
             frozenset(spec.cqs))
            for comp_id, spec in plan.components.items()
        ),
        sorted(plan.cq_final.items()),
        sorted(plan.cq_stream_sources.items()),
        sorted(plan.cq_probe_atoms.items()),
    )


# -- template signatures ------------------------------------------------------


#: Strategy: selection flags for a chain of up to 4 *distinct*
#: relations.  Distinctness matters: a symmetric self-join is
#: automorphic, and under an automorphism the canonical renaming may
#: legally permute atoms -- equivalent queries with asymmetric weights
#: then (safely) land on different signatures.  The generator never
#: produces self-joins ("trees over relation sets cannot repeat
#: relations"), so the property is stated over its actual domain.
chain_specs = st.lists(st.booleans(), min_size=1, max_size=4)
weight_lists = st.lists(
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False, width=32),
    min_size=4, max_size=4,
)


def build_chain_cq(spec, weights):
    atoms, joins, selections = [], [], []
    for i, selected in enumerate(spec):
        alias = f"t{i}"
        atoms.append(Atom(alias, f"R{i}"))
        if i:
            joins.append(JoinPred.normalized(f"t{i-1}", "x", alias, "x"))
        if selected:
            selections.append(Selection(alias, "name", "contains", f"R{i}"))
    expr = SPJ(atoms, joins, selections)
    score = MonotoneScore(
        {f"t{i}": weights[i] for i in range(len(spec))}, 0.1, "identity",
        {f"t{i}": 1.0 for i in range(len(spec))},
    )
    return ConjunctiveQuery("cq0", "uq0", expr, score)


class TestTemplateSignature:
    @settings(max_examples=60, deadline=None)
    @given(spec=chain_specs, weights=weight_lists,
           perm=st.permutations(list(range(4))))
    def test_invariant_under_alias_renaming(self, spec, weights, perm):
        cq = build_chain_cq(spec, weights)
        mapping = {f"t{i}": f"z{perm[i]}" for i in range(len(spec))}
        renamed = ConjunctiveQuery(
            "other", "uqX", cq.expr.renamed(mapping),
            cq.score.renamed(mapping))
        assert renamed.template_signature == cq.template_signature

    @settings(max_examples=60, deadline=None)
    @given(spec=chain_specs, weights=weight_lists)
    def test_sensitive_to_selections_and_weights(self, spec, weights):
        cq = build_chain_cq(spec, weights)
        flipped = [not sel for sel in spec]
        other = build_chain_cq(flipped, weights)
        assert other.template_signature != cq.template_signature
        reweighted = build_chain_cq(spec, [w + 1.0 for w in weights])
        assert reweighted.template_signature != cq.template_signature

    @settings(max_examples=25, deadline=None)
    @given(perm=st.permutations([0, 1, 2]),
           cases=st.lists(st.sampled_from([str.lower, str.upper, str.title]),
                          min_size=3, max_size=3))
    def test_invariant_under_keyword_permutation_and_case(
            self, fed, index, perm, cases):
        """Expansion is structurally invariant under keyword order and
        case: the multiset of CQ template signatures never changes."""
        generator = CandidateNetworkGenerator(fed, index=index, max_cqs=8)
        base = ("protein", "plasma membrane", "gene")
        baseline = sorted(
            generator.generate(KeywordQuery("B", base, k=K))
            .template_signature)
        variant = tuple(cases[i](base[perm[i]]) for i in range(3))
        uq = generator.generate(KeywordQuery("V", variant, k=K))
        assert sorted(uq.template_signature) == baseline

    def test_signature_equal_cqs_have_identical_candidate_sets(self):
        fed = one_site_chain_federation()
        config = config_for(SharingMode.ATC_FULL, tau_probe_threshold=2,
                            min_sharing_queries=1)
        cost = CostModel(fed, config)
        cq = chain_cq()
        mapping = {"A": "pA", "B": "pB", "C": "pC"}
        twin = ConjunctiveQuery("twin", "uqX", cq.expr.renamed(mapping),
                                cq.score.renamed(mapping))
        assert twin.template_signature == cq.template_signature

        def canonical(candidate_set):
            return (
                sorted((c.expr.canonical_key, len(c.consumers),
                        round(c.est_cardinality, 9))
                       for c in candidate_set.pushdowns),
                sorted((c.expr.canonical_key, len(c.consumers),
                        round(c.est_cardinality, 9))
                       for c in candidate_set.bases),
            )

        first = enumerate_candidates([cq], fed, cost, config)
        second = enumerate_candidates([twin], fed, cost, config)
        assert canonical(first) == canonical(second)
        assert first.pushdowns, "scenario must exercise push-downs"


# -- expansion interning ------------------------------------------------------


class TestExpansionInterning:
    def test_repeat_instantiated_from_template(self, fed, index):
        config = config_for(SharingMode.ATC_FULL)
        repo = PlanRepository(fed, config)
        generator = CandidateNetworkGenerator(fed, index=index,
                                              repository=repo)
        first = generator.generate(
            KeywordQuery("KQ1", ("protein", "plasma membrane"), k=K))
        # Order and duplicates never change an expansion; both fold
        # into the same template.
        second = generator.generate(
            KeywordQuery("KQ2", ("plasma membrane", "protein", "protein"),
                         k=K + 1))
        assert repo.stats.expansion_misses == 1
        assert repo.stats.expansion_hits == 1
        assert second.uq_id == "KQ2" and second.k == K + 1
        assert [cq.cq_id for cq in second.cqs] == \
            [cq.cq_id.replace("KQ1", "KQ2") for cq in first.cqs]
        # Renaming, not re-enumeration: the expression objects are the
        # template's own.
        for a, b in zip(first.cqs, second.cqs):
            assert a.expr is b.expr
            assert a.template_signature == b.template_signature

    def test_matches_fresh_expansion_exactly(self, fed, index):
        repo = PlanRepository(fed, config_for(SharingMode.ATC_FULL))
        interned = CandidateNetworkGenerator(fed, index=index,
                                             repository=repo)
        plain = CandidateNetworkGenerator(fed, index=index)
        interned.generate(KeywordQuery("W", ("gene", "membrane"), k=K))
        via_template = interned.generate(
            KeywordQuery("KQ9", ("membrane", "gene"), k=K))
        fresh = plain.generate(KeywordQuery("KQ9", ("membrane", "gene"), k=K))
        assert [cq.cq_id for cq in via_template.cqs] == \
            [cq.cq_id for cq in fresh.cqs]
        assert [cq.expr for cq in via_template.cqs] == \
            [cq.expr for cq in fresh.cqs]

    def test_case_variants_interned_separately(self, fed, index):
        """The intern key is case-exact: ``("Apple", "apple")`` expands
        through a two-entry match product where ``("apple",)`` builds
        one, so folding them together would violate the byte-identity
        contract.  Each spelling gets its own (correct) template."""
        repo = PlanRepository(fed, config_for(SharingMode.ATC_FULL))
        interned = CandidateNetworkGenerator(fed, index=index,
                                             repository=repo)
        plain = CandidateNetworkGenerator(fed, index=index)
        interned.generate(KeywordQuery("A", ("gene", "membrane"), k=K))
        variant = interned.generate(
            KeywordQuery("B", ("GENE", "gene", "membrane"), k=K))
        assert repo.stats.expansion_hits == 0
        assert repo.stats.expansion_misses == 2
        fresh = plain.generate(
            KeywordQuery("B", ("GENE", "gene", "membrane"), k=K))
        assert [cq.expr for cq in variant.cqs] == \
            [cq.expr for cq in fresh.cqs]

    def test_disabled_cache_skips_interning(self, fed, index):
        repo = PlanRepository(fed, config_for(SharingMode.ATC_FULL,
                                              plan_cache=False))
        generator = CandidateNetworkGenerator(fed, index=index,
                                              repository=repo)
        for kq_id in ("KQ1", "KQ2"):
            generator.generate(
                KeywordQuery(kq_id, ("protein", "plasma membrane"), k=K))
        assert repo.stats.lookups == 0

    def test_unmatchable_keywords_not_cached(self, fed, index):
        repo = PlanRepository(fed, config_for(SharingMode.ATC_FULL))
        generator = CandidateNetworkGenerator(fed, index=index,
                                              repository=repo)
        for kq_id in ("KQ1", "KQ2"):
            with pytest.raises(QueryError):
                generator.generate(KeywordQuery(kq_id, ("zzznothing",), k=K))
        assert repo.stats.expansion_hits == 0


# -- driving streams ----------------------------------------------------------


class TestDrivingStreams:
    def test_scoreless_cq_gets_min_cardinality_fallback(self):
        fed = load_triple_federation()
        config = config_for(SharingMode.ATC_FULL, tau_probe_threshold=2)
        cq = make_cq(abc_expr().induced({"B"}), fed, "solo")
        assert driving_stream_aliases(cq, fed, config) == {"B"}

    def test_memoized_per_template(self):
        fed = load_triple_federation()
        config = config_for(SharingMode.ATC_FULL, tau_probe_threshold=2)
        repo = PlanRepository(fed, config)
        cq1 = make_cq(abc_expr(), fed, "cq1")
        cq2 = make_cq(abc_expr(), fed, "cq2", "uq2")
        assert repo.driving_streams(cq1) == repo.driving_streams(cq2)
        assert repo.stats.template_misses == 1
        assert repo.stats.template_hits == 1
        # Callers own the returned set; mutation must not poison the memo.
        repo.driving_streams(cq1).clear()
        assert repo.driving_streams(cq1) == repo.driving_streams(cq2)


# -- memoized optimization through the engine ---------------------------------


class TestMemoizedOptimization:
    def run_twice(self, fed, index, mode, **overrides):
        from repro.atc.engine import QSystemEngine
        engine = QSystemEngine(fed, config_for(mode, **overrides),
                               index=index)
        engine.submit(KeywordQuery("KQ1", ("protein", "plasma membrane"),
                                   k=K))
        engine.run()
        engine.submit(KeywordQuery("KQ2", ("protein", "plasma membrane"),
                                   k=K))
        report = engine.run()
        return engine, report

    def test_atc_uq_repeat_is_full_plan_hit(self, fed, index):
        engine, report = self.run_twice(fed, index, SharingMode.ATC_UQ)
        records = report.metrics.optimizer_records
        assert len(records) == 2
        assert records[0].cache_misses > 0
        assert records[1].cache_misses == 0
        assert records[1].cache_hits > 0
        # A plan-cache hit explores nothing.
        assert records[0].plans_explored > 0
        assert records[1].plans_explored == 0
        assert [a.score for a in report.answers["KQ1"]] == \
            [a.score for a in report.answers["KQ2"]]

    def test_atc_full_reexecutes_on_fingerprint_change(self, fed, index):
        """Between the two identical submissions the graph *read
        tuples*, so the reuse fingerprint differs and the cached plan
        must not be served."""
        engine, report = self.run_twice(fed, index, SharingMode.ATC_FULL)
        stats = engine.repository.stats
        assert stats.plan_misses == 2
        assert stats.plan_hits == 0
        # The expansion and template layers still hit -- state
        # dependence only invalidates the state-dependent layer.
        assert stats.expansion_hits == 1
        assert [a.score for a in report.answers["KQ1"]] == \
            [a.score for a in report.answers["KQ2"]]

    def test_disabled_plan_cache_records_no_lookups(self, fed, index):
        engine, report = self.run_twice(fed, index, SharingMode.ATC_UQ,
                                        plan_cache=False)
        assert engine.repository.stats.lookups == 0
        for record in report.metrics.optimizer_records:
            assert record.cache_hits == 0
            assert record.cache_misses == 0
            assert record.delta_grafts == 0


# -- relabeling transparency --------------------------------------------------


class TestRelabelingTransparency:
    """A cache hit must replay exactly the plan an uncached optimizer
    would derive -- across fresh query ids, in every scope regime."""

    @pytest.mark.parametrize("mode", (SharingMode.ATC_CQ, SharingMode.ATC_UQ),
                             ids=str)
    def test_per_query_scope_relabel(self, mode):
        fed = one_site_chain_federation()
        config = config_for(mode, tau_probe_threshold=2,
                            min_sharing_queries=1)
        cost = CostModel(fed, config)
        repo = PlanRepository(fed, config)

        def uq_for(uq_id):
            cq = chain_cq(f"{uq_id}-cq0", uq_id)
            return UserQuery(uq_id=uq_id, keywords=("protein",), cqs=[cq],
                             k=K)

        repo.optimize([uq_for("KQ1")], scope="KQ1", oracle=None,
                      cost_model=cost)
        cached = repo.optimize([uq_for("KQ2")], scope="KQ2", oracle=None,
                               cost_model=cost)
        assert repo.stats.plan_hits == 1
        fresh_repo = PlanRepository(
            fed, config.with_overrides(plan_cache=False))
        fresh = fresh_repo.optimize([uq_for("KQ2")], scope="KQ2", oracle=None,
                                    cost_model=cost)
        assert plan_shape(cached.plan) == plan_shape(fresh.plan)

    def test_sharing_scope_hit_lands_on_identical_node_ids(self):
        fed = one_site_chain_federation()
        config = config_for(SharingMode.ATC_FULL, tau_probe_threshold=2,
                            min_sharing_queries=1)
        cost = CostModel(fed, config)
        repo = PlanRepository(fed, config)

        def uq_for(uq_id):
            cq = chain_cq(f"{uq_id}-cq0", uq_id)
            return UserQuery(uq_id=uq_id, keywords=("protein",), cqs=[cq],
                             k=K)

        first = repo.optimize([uq_for("KQ1")], scope="main",
                              oracle=ReadingOracle({}), cost_model=cost)
        second = repo.optimize([uq_for("KQ2")], scope="main",
                               oracle=ReadingOracle({}), cost_model=cost)
        assert repo.stats.plan_hits == 1
        # The twin's chain lands on the same operator identities --
        # that identity is what makes the QS-manager graft free.
        assert set(second.plan.sources) == set(first.plan.sources)
        assert set(second.plan.components) == set(first.plan.components)
        assert second.plan.cq_final["KQ2-cq0"] == \
            first.plan.cq_final["KQ1-cq0"]


# -- the reuse fingerprint ----------------------------------------------------


class TestReuseFingerprint:
    def setup_method(self):
        self.fed = one_site_chain_federation()
        self.config = config_for(SharingMode.ATC_FULL, tau_probe_threshold=2,
                                 min_sharing_queries=1)
        self.cost = CostModel(self.fed, self.config)
        expr = chain_cq().expr
        self.read_expr = expr.induced({"B", "C"})

    def optimize(self, repo, uq_id, readings):
        cq = chain_cq(f"{uq_id}-cq0", uq_id)
        uq = UserQuery(uq_id=uq_id, keywords=("protein",), cqs=[cq], k=K)
        return repo.optimize([uq], scope="main",
                             oracle=ReadingOracle(readings),
                             cost_model=self.cost).plan

    def relabeled(self, plan, old_uq, new_uq):
        def swap(value):
            if isinstance(value, str):
                return value.replace(old_uq, new_uq)
            if isinstance(value, (list, tuple)):
                return type(value)(swap(v) for v in value)
            if isinstance(value, frozenset):
                return frozenset(swap(v) for v in value)
            return value
        shape = plan_shape(plan)
        return swap(shape)

    def test_prior_reads_change_best_plan_and_repository_reoptimizes(self):
        """The scenario the fingerprint exists for: with no prior
        state the optimizer streams the full pushed-down chain; once
        B |X| C has been read into memory, re-using it (plus a base
        scan of A) is cheaper.  The repository must notice the changed
        readings and re-optimize -- serving the cached plan would be
        wrong, not merely stale."""
        no_reads = {}
        reads = {self.read_expr: 5000}
        fresh_repo = PlanRepository(
            self.fed, self.config.with_overrides(plan_cache=False))
        fresh_cold = self.optimize(fresh_repo, "KQ1", no_reads)
        fresh_warm = self.optimize(fresh_repo, "KQ1", reads)
        assert plan_shape(fresh_cold) != plan_shape(fresh_warm), \
            "scenario must actually flip the best plan"

        repo = PlanRepository(self.fed, self.config)
        cold = self.optimize(repo, "KQ1", no_reads)
        assert plan_shape(cold) == plan_shape(fresh_cold)
        warm = self.optimize(repo, "KQ2", reads)
        assert repo.stats.plan_hits == 0
        assert repo.stats.plan_misses == 2
        assert self.relabeled(warm, "KQ2", "KQ1") == \
            self.relabeled(fresh_warm, "KQ1", "KQ1")

    def test_matching_fingerprint_hits_again(self):
        repo = PlanRepository(self.fed, self.config)
        reads = {self.read_expr: 5000}
        first = self.optimize(repo, "KQ1", reads)
        second = self.optimize(repo, "KQ2", dict(reads))
        assert repo.stats.plan_hits == 1
        assert self.relabeled(second, "KQ2", "KQ1") == \
            self.relabeled(first, "KQ1", "KQ1")


# -- optimizer telemetry ------------------------------------------------------


class TestOptimizerTelemetry:
    def make_records(self):
        return [
            OptimizerRecord(3, 7, 0.25, 5, cache_hits=8, cache_misses=2,
                            delta_grafts=4),
            OptimizerRecord(2, 0, 0.05, 1, cache_hits=6, cache_misses=0,
                            delta_grafts=1),
        ]

    def test_sync_is_idempotent_absolute(self):
        tel = Telemetry()
        tel.sync_optimizer(self.make_records())
        tel.sync_optimizer(self.make_records())
        assert tel.optimizer_wall == pytest.approx(0.30)
        assert tel.optimizer_invocations == 2
        assert tel.plans_explored == 7
        assert tel.plan_cache_hits == 14
        assert tel.plan_cache_misses == 2
        assert tel.plan_delta_grafts == 5
        assert tel.plan_cache_hit_rate() == pytest.approx(14 / 16)

    def test_undefined_stats_are_none(self):
        tel = Telemetry()
        assert tel.plan_cache_hit_rate() is None
        assert tel.optimizer_share() is None
        summary = tel.summary()
        assert summary["plan_cache_hit_rate"] is None
        assert summary["optimizer_share"] is None
        assert "n/a" in tel.render()

    def test_merged_sums_counters(self):
        a, b = Telemetry(), Telemetry()
        a.sync_optimizer(self.make_records())
        b.sync_optimizer(self.make_records()[:1])
        merged = Telemetry.merged([a, b])
        assert merged.optimizer_wall == pytest.approx(0.55)
        assert merged.optimizer_invocations == 3
        assert merged.plan_cache_hits == 22
        assert merged.plan_cache_misses == 4
        assert merged.plan_delta_grafts == 9

    def test_summary_surfaces_optimizer_stats(self):
        tel = Telemetry()
        tel.record_arrival(0.0)
        tel.record_completion(2.0, 2.0)
        tel.sync_optimizer(self.make_records())
        summary = tel.summary()
        assert summary["optimizer_wall_s"] == pytest.approx(0.30)
        assert summary["optimizer_share"] == pytest.approx(0.15)
        assert summary["plans_explored"] == 7.0
        rendered = tel.render()
        assert "optimizer" in rendered
        assert "plan cache" in rendered
