"""The plan repository: expansion interning and keyword-level fragments.

Three invariants:

* expansion interning is transparent: a repeated keyword set yields the
  same user query under fresh ids, without re-enumerating join trees;
* the repository keeps no other state: serving the same queries twice
  leaves one expansion per distinct keyword set, one keyword-fragment
  entry per distinct keyword and every other table empty, and
  optimizing one batch twice yields equal plans;
* plan choice depends on the reuse oracle, so Algorithm 1 is re-run on
  every batch: prior reads can change the best plan.
"""

import gc
import itertools
import random
import tracemalloc

import pytest

from repro.common.config import DelayModel, ExecutionConfig, SharingMode
from repro.common.errors import QueryError
from repro.data.database import Federation
from repro.data.figure1 import figure1_federation
from repro.data.inverted import InvertedIndex
from repro.data.schema import Attribute, Relation, Schema, SchemaEdge
from repro.keyword.candidates import CandidateNetworkGenerator
from repro.keyword.queries import ConjunctiveQuery, KeywordQuery, UserQuery
from repro.optimizer.bestplan import BestPlanSearch
from repro.optimizer.candidates import (
    driving_stream_aliases,
    enumerate_candidates,
)
from repro.optimizer.cost import CostModel, ReuseOracle
from repro.optimizer.repository import PlanRepository
from repro.plan.expressions import SPJ, Atom, JoinPred, Selection
from repro.scoring.base import MonotoneScore
from repro.service import QService, ServiceConfig
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
# -- candidates, for the reuse-oracle plan-flip scenario --------------------


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


def score_value(score: MonotoneScore) -> tuple:
    """A score function as a value: weights, static, transform, caps."""
    return (score.weights, score.static, score.transform_name, score.caps)


class ReadingOracle(ReuseOracle):
    """A stub QS-manager oracle with scripted prior readings."""

    def __init__(self, readings):
        self.readings = readings

    def tuples_already_read(self, expr):
        return self.readings.get(expr, 0)


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
        assert [score_value(cq.score) for cq in via_template.cqs] == \
            [score_value(cq.score) for cq in fresh.cqs]

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

    def test_unmatchable_keywords_not_cached(self, fed, index):
        repo = PlanRepository(fed, config_for(SharingMode.ATC_FULL))
        generator = CandidateNetworkGenerator(fed, index=index,
                                              repository=repo)
        for kq_id in ("KQ1", "KQ2"):
            with pytest.raises(QueryError):
                generator.generate(KeywordQuery(kq_id, ("zzznothing",), k=K))
        assert repo.stats.expansion_hits == 0


class TestSharedExpansionValues:
    """One object per value: expansions share atoms, joins, selections
    and scores, and a template holds parts, never a score."""

    PAIRS = (("protein", "plasma membrane"), ("gene", "membrane"),
             ("protein", "gene"), ("membrane", "transcription"))

    def expand_all(self, generator, keyword_sets=PAIRS):
        return [generator.generate(KeywordQuery(f"KQ{i}", keywords, k=K))
                for i, keywords in enumerate(keyword_sets)]

    def test_join_paths_share_atoms_and_joins(self, fed, index):
        """Read off the templates: a live query's expression may be an
        equal one another generator interned first."""
        repo = PlanRepository(fed, config_for(SharingMode.ATC_FULL))
        generator = CandidateNetworkGenerator(fed, index=index,
                                              repository=repo)
        self.expand_all(generator, self.PAIRS[:2])
        first, second = repo._expansions.values()
        atoms = {}
        joins = {}
        for template in (first, second):
            for entry in template:
                cq_atoms, cq_joins, _selections = entry[0]
                for atom in cq_atoms:
                    assert atoms.setdefault(atom, atom) is atom
                for join in cq_joins:
                    assert joins.setdefault(join, join) is join

        def parts(template, index):
            return {part for entry in template for part in entry[0][index]}

        assert parts(first, 0) & parts(second, 0)
        assert parts(first, 1) & parts(second, 1)

    def test_one_score_per_skeleton(self, fed, index):
        generator = CandidateNetworkGenerator(fed, index=index)
        cqs = [cq for uq in self.expand_all(generator) for cq in uq.cqs]
        by_skeleton = {}
        for cq in cqs:
            by_skeleton.setdefault((cq.expr.atoms, cq.expr.joins),
                                   []).append(cq.score)
        assert any(len(scores) > 1 for scores in by_skeleton.values())
        for scores in by_skeleton.values():
            assert all(score is scores[0] for score in scores)
        assert len({id(cq.score) for cq in cqs}) == len(by_skeleton)

    def test_template_entries_carry_no_score(self, fed, index):
        repo = PlanRepository(fed, config_for(SharingMode.ATC_FULL))
        generator = CandidateNetworkGenerator(fed, index=index,
                                              repository=repo)
        uqs = self.expand_all(generator)
        assert len(repo._expansions) == len(self.PAIRS)
        for uq in uqs:
            template = repo._expansions[
                PlanRepository.expansion_key(uq.keywords)]
            assert len(template) == len(uq.cqs)
            for cq in uq.cqs:
                # The template keeps enumeration order, which numbers
                # the ids; the user query sorts by upper bound.
                entry = template[int(cq.cq_id.rpartition("-cq")[2])]
                assert not any(isinstance(part, MonotoneScore)
                               for part in entry)
                (atoms, joins, selections), matches = entry
                assert (atoms, joins, selections) == \
                    (cq.expr.atoms, cq.expr.joins, cq.expr.selections)
                assert matches == cq.matches
                parts = atoms + joins + selections + matches
                assert not any(isinstance(part, (MonotoneScore, SPJ))
                               for part in parts)

    def test_memos_stay_under_their_caps(self, fed, index):
        """Evicting selections and skeletons changes no expansion."""
        warm = CandidateNetworkGenerator(fed, index=index)
        warm.MAX_SELECTIONS = 2
        warm.MAX_SKELETONS = 3
        warm.MAX_KEYWORDS = 2
        for _round in range(2):
            for keywords in self.PAIRS:
                kq = KeywordQuery("K", keywords, k=K)
                fresh = CandidateNetworkGenerator(fed, index=index)
                got, want = warm.generate(kq), fresh.generate(kq)
                assert [cq.expr for cq in got.cqs] == \
                    [cq.expr for cq in want.cqs]
                assert [score_value(cq.score) for cq in got.cqs] == \
                    [score_value(cq.score) for cq in want.cqs]
        assert 0 < len(warm._selections) <= 2
        assert 0 < len(warm._skeletons) <= 3
        assert 0 < len(warm._matches) <= 2

    def test_score_memo_holds_one_stats_epoch(self):
        federation = figure1_federation(
            seed=7, cardinalities=dict(TINY_FIG1_CARDS), domain_factor=0.7)
        generator = CandidateNetworkGenerator(federation)
        self.expand_all(generator)
        federation.load("GI", [{"giId": 10_000, "gene": "zz", "relevance": 2}])
        uq = generator.generate(KeywordQuery("KQ", ("protein",), k=K))
        assert len(generator._skeletons) == \
            len({(cq.expr.atoms, cq.expr.joins) for cq in uq.cqs})

    def test_template_hit_after_load_reads_new_statistics(self):
        """A cached expansion follows ``Federation.load``: the load voids
        the table (loaded rows move keyword matches -- here UP's row
        count, so the strengths of its content matches -- as well as
        score caps), the next expansion is derived again, and a hit on
        it scores under the statistics of the moment, exactly as a fresh
        generator does."""
        federation = figure1_federation(
            seed=7, cardinalities=dict(TINY_FIG1_CARDS), domain_factor=0.7)
        index = InvertedIndex(federation)
        repo = PlanRepository(federation, config_for(SharingMode.ATC_FULL))
        generator = CandidateNetworkGenerator(federation, index=index,
                                              repository=repo)
        keywords = ("protein", "plasma membrane")
        before = generator.generate(KeywordQuery("KQ1", keywords, k=K))
        assert any("UP" in cq.score.caps for cq in before.cqs)
        federation.load("UP", [{"ac": 10_000, "nam": "zz",
                                "relevance": 1000.0}])
        derived = generator.generate(KeywordQuery("KQ2", keywords, k=K))
        hit = generator.generate(KeywordQuery("KQ2", keywords, k=K))
        assert (repo.stats.expansion_hits, repo.stats.expansion_misses) \
            == (1, 2)
        fresh = CandidateNetworkGenerator(federation, index=index).generate(
            KeywordQuery("KQ2", keywords, k=K))
        assert [cq.matches for cq in derived.cqs] != \
            [cq.matches for cq in before.cqs]
        for served in (derived, hit):
            assert [(cq.expr, cq.matches, score_value(cq.score))
                    for cq in served.cqs] == \
                [(cq.expr, cq.matches, score_value(cq.score))
                 for cq in fresh.cqs]
        assert {cq.score.caps["UP"] for cq in hit.cqs
                if "UP" in cq.score.caps} == {1000.0}


class TestExpansionTableBounded:
    """What a cached expansion costs: its own tuples, nothing the
    generator shares with other expansions."""

    #: Bytes retained per template by the repository and generator
    #: together (their memos included), figure-1 fixture: ~5.6 KiB with
    #: shared values, ~37 KiB when each template kept private atoms,
    #: joins, selections, matches and scores.
    LIMIT = 12 * 1024

    def keyword_sets(self, index):
        vocabulary = index.vocabulary()
        return (list(itertools.combinations(vocabulary[:9], 2))
                + [(word,) for word in vocabulary[:4]])

    def test_retained_bytes_per_template(self, fed, index):
        keyword_sets = self.keyword_sets(index)
        config = config_for(SharingMode.ATC_FULL)

        def expand_all():
            repo = PlanRepository(fed, config)
            generator = CandidateNetworkGenerator(fed, index=index,
                                                  repository=repo)
            for i, keywords in enumerate(keyword_sets):
                generator.generate(KeywordQuery(f"KQ{i}", keywords, k=K))
            return repo, generator

        # Once untraced, so that what the federation memoizes (relation
        # statistics) is there before tracing starts.
        expand_all()
        gc.collect()
        # Traced from before the repository exists: a block allocated
        # before tracing began is not subtracted when it is freed.
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            repo, generator = expand_all()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(repo._expansions) == len(keyword_sets) == 40
        assert retained / len(repo._expansions) < self.LIMIT


# -- driving streams ----------------------------------------------------------


class TestDrivingStreams:
    def test_scoreless_cq_gets_min_cardinality_fallback(self):
        fed = load_triple_federation()
        config = config_for(SharingMode.ATC_FULL, tau_probe_threshold=2)
        cq = make_cq(abc_expr().induced({"B"}), fed, "solo")
        assert driving_stream_aliases(cq, fed, config) == {"B"}


# -- state-dependent plan choice ----------------------------------------------


class TestReuseOracle:
    def test_prior_reads_change_best_plan(self):
        """Plan choice depends on plan-graph state (Section 6.1): with
        no prior reads Algorithm 1 streams the whole pushed-down chain;
        once B |X| C has been read into memory, re-using it plus a scan
        of A is cheaper.  This is why no best plan is cached across
        batches."""
        fed = one_site_chain_federation()
        config = config_for(SharingMode.ATC_FULL, tau_probe_threshold=2,
                            min_sharing_queries=1)
        cost = CostModel(fed, config)
        cq = chain_cq()
        read_expr = cq.expr.induced({"B", "C"})
        candidates = enumerate_candidates([cq], fed, cost, config)

        def best(readings):
            return BestPlanSearch(
                cqs=[cq], candidates=candidates, cost_model=cost,
                config=config,
                streamable={cq.cq_id: driving_stream_aliases(cq, fed,
                                                             config)},
                oracle=ReadingOracle(readings)).run()

        cold = best({})
        warm = best({read_expr: 5000})
        assert list(cold.streams) == [cq.expr]
        assert set(warm.streams) == {read_expr, cq.expr.induced({"A"})}
        assert warm.cost < cold.cost


# -- no hidden state ----------------------------------------------------------


class TestNoHiddenState:
    KEYWORD_SETS = (("protein", "plasma membrane"), ("gene", "membrane"),
                    ("membrane", "gene"), ("protein",),
                    ("protein", "protein"))

    def test_only_the_expansion_table_fills(self, fed, index):
        """Serve the same distinct queries twice with the answer cache
        and coalescing off, so every repeat reaches the optimizer: the
        repository ends with one expansion per distinct keyword set,
        one keyword-table entry per distinct keyword -- holding only
        fragments whose selections carry that keyword alone -- plus one
        for the fragments that carry none, and every other table
        empty."""
        svc = QService(fed, config_for(SharingMode.ATC_FULL),
                       ServiceConfig(coalesce=False, cache_ttl=1e-9),
                       index=index)
        load = [KeywordQuery(f"R{round_}-{i}", keywords, k=K,
                             arrival=100.0 * (round_ * 10 + i))
                for round_ in range(2)
                for i, keywords in enumerate(self.KEYWORD_SETS)]
        report = svc.run(load)
        assert report.telemetry.completed == len(load)
        assert report.telemetry.served_from_cache == 0
        repo = svc.workers[0].engine.repository
        distinct = {PlanRepository.expansion_key(kw)
                    for kw in self.KEYWORD_SETS}
        tables = {name: value for name, value in vars(repo).items()
                  if isinstance(value, (dict, list, set, tuple))}
        assert [name for name, value in tables.items() if value] == \
            ["_expansions", "_keyword_fragments"]
        assert set(repo._expansions) == distinct
        # One entry per keyword, plus ``None`` for the join paths that
        # carry no keyword at all.
        assert set(repo._keyword_fragments) == {None} | \
            {kw for keywords in self.KEYWORD_SETS for kw in keywords}
        for keyword, fragments in repo._keyword_fragments.items():
            assert fragments and all(
                s.value == keyword
                for fragment in fragments for s in fragment.selections)
        assert repo.stats.expansion_misses == len(distinct)
        assert repo.stats.expansion_hits == \
            2 * len(self.KEYWORD_SETS) - len(distinct)

    def test_optimize_twice_returns_equal_plans(self):
        fed = one_site_chain_federation()
        config = config_for(SharingMode.ATC_FULL, tau_probe_threshold=2,
                            min_sharing_queries=1)
        cost = CostModel(fed, config)
        repo = PlanRepository(fed, config)
        cq = chain_cq("KQ1-cq0", "KQ1")
        uqs = [UserQuery(uq_id="KQ1", keywords=("protein",), cqs=[cq], k=K)]
        oracle = ReadingOracle({cq.expr.induced({"B", "C"}): 5000})
        first = repo.optimize(uqs, scope="main", oracle=oracle,
                              cost_model=cost)
        second = repo.optimize(uqs, scope="main", oracle=oracle,
                               cost_model=cost)
        assert first.plan == second.plan
        assert first.plan.components
        assert (first.record.candidate_count, first.record.plans_explored) \
            == (second.record.candidate_count, second.record.plans_explored)


# -- optimizer telemetry ------------------------------------------------------


class TestOptimizerTelemetry:
    def make_records(self):
        return [
            OptimizerRecord(3, 7, 0.25, 5),
            OptimizerRecord(2, 0, 0.05, 1),
        ]

    def test_sync_is_idempotent_absolute(self):
        tel = Telemetry()
        tel.sync_optimizer(self.make_records())
        tel.sync_optimizer(self.make_records())
        assert tel.optimizer_wall == pytest.approx(0.30)
        assert tel.optimizer_invocations == 2
        assert tel.plans_explored == 7

    def test_undefined_stats_are_none(self):
        tel = Telemetry()
        assert tel.optimizer_share() is None
        assert tel.summary()["optimizer_share"] is None
        assert "n/a" in tel.render()

    def test_merged_sums_counters(self):
        a, b = Telemetry(), Telemetry()
        a.sync_optimizer(self.make_records())
        b.sync_optimizer(self.make_records()[:1])
        merged = Telemetry.merged([a, b])
        assert merged.optimizer_wall == pytest.approx(0.55)
        assert merged.optimizer_invocations == 3
        assert merged.plans_explored == 14

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
        assert "7 plans explored" in rendered
