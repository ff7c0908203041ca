"""Tests for keyword matching and candidate-network generation."""

import pytest

from repro.common.errors import QueryError
from repro.data.inverted import InvertedIndex
from repro.keyword.candidates import CandidateNetworkGenerator
from repro.keyword.queries import KeywordQuery


@pytest.fixture(scope="module")
def index(fig1_federation_module):
    return InvertedIndex(fig1_federation_module)


@pytest.fixture(scope="module")
def fig1_federation_module():
    from repro.data.figure1 import figure1_federation

    from tests.conftest import TINY_FIG1_CARDS

    return figure1_federation(seed=7, cardinalities=dict(TINY_FIG1_CARDS),
                              domain_factor=0.7)


@pytest.fixture(scope="module")
def generator(fig1_federation_module, index):
    return CandidateNetworkGenerator(fig1_federation_module, index=index,
                                     max_cqs=10)


class TestInvertedIndex:
    def test_content_match_found(self, index):
        matches = index.matches("protein")
        assert matches
        assert all(m.via in ("metadata", "content") for m in matches)

    def test_phrase_match(self, index):
        matches = index.matches("plasma membrane")
        assert matches
        assert all(m.via == "content" for m in matches)

    def test_unknown_keyword_empty(self, index):
        assert index.matches("zzzzunknown") == []

    def test_match_strength_ordering(self, index):
        matches = index.matches("protein")
        strengths = [m.strength for m in matches]
        assert strengths == sorted(strengths, reverse=True)

    def test_max_matches_cap(self, index):
        assert len(index.matches("protein", max_matches=2)) == 2

    def test_vocabulary_sorted_by_frequency(self, index):
        vocabulary = index.vocabulary()
        assert len(vocabulary) > 10
        df = [sum(sum(attrs.values())
                  for attrs in index._postings[t].values())
              for t in vocabulary[:5]]
        assert df == sorted(df, reverse=True)

    def test_selection_from_content_match(self, index):
        match = index.matches("membrane")[0]
        selection = match.selection("X")
        assert selection is not None
        assert selection.op == "contains"
        assert selection.value == "membrane"


class TestCandidateNetworks:
    def test_generates_cqs(self, generator):
        uq = generator.generate(
            KeywordQuery("K", ("protein", "gene"), k=5))
        assert 1 <= len(uq.cqs) <= 10

    def test_cqs_sorted_by_upper_bound(self, generator):
        uq = generator.generate(
            KeywordQuery("K", ("protein", "gene"), k=5))
        bounds = [cq.upper_bound for cq in uq.cqs]
        assert bounds == sorted(bounds, reverse=True)

    def test_expressions_connected(self, generator):
        uq = generator.generate(
            KeywordQuery("K", ("protein", "membrane", "gene"), k=5))
        for cq in uq.cqs:
            assert cq.expr.is_connected()

    def test_tree_size_bounded(self, generator):
        uq = generator.generate(
            KeywordQuery("K", ("protein", "membrane", "gene"), k=5))
        for cq in uq.cqs:
            assert cq.size <= generator.max_tree_size

    def test_no_duplicate_cqs(self, generator):
        uq = generator.generate(
            KeywordQuery("K", ("protein", "gene"), k=5))
        exprs = [cq.expr for cq in uq.cqs]
        assert len(exprs) == len(set(exprs))

    def test_content_matches_become_selections(self, generator):
        uq = generator.generate(
            KeywordQuery("K", ("plasma membrane", "gene"), k=5))
        with_selection = [cq for cq in uq.cqs if cq.expr.selections]
        assert with_selection

    def test_unmatchable_keyword_raises(self, generator):
        with pytest.raises(QueryError):
            generator.generate(KeywordQuery("K", ("qqqqq",), k=5))

    def test_aliases_are_relation_names(self, generator):
        uq = generator.generate(
            KeywordQuery("K", ("protein", "gene"), k=5))
        for cq in uq.cqs:
            for atom in cq.expr.atoms:
                assert atom.alias == atom.relation

    def test_single_keyword_query(self, generator):
        uq = generator.generate(KeywordQuery("K", ("protein",), k=5))
        assert uq.cqs
        assert all(cq.size >= 1 for cq in uq.cqs)

    def test_deterministic(self, fig1_federation_module, index):
        g1 = CandidateNetworkGenerator(fig1_federation_module, index=index,
                                       max_cqs=8)
        g2 = CandidateNetworkGenerator(fig1_federation_module, index=index,
                                       max_cqs=8)
        uq1 = g1.generate(KeywordQuery("K", ("protein", "gene"), k=5))
        uq2 = g2.generate(KeywordQuery("K", ("protein", "gene"), k=5))
        assert [cq.expr for cq in uq1.cqs] == [cq.expr for cq in uq2.cqs]

    def test_memoized_trees_equal_fresh_ones(self, fig1_federation_module,
                                             index):
        """A generator that has served other queries (warm Steiner
        memo and edge orders, evictions included) expands a keyword
        set to the same networks, in the same order, as a new one."""
        queries = [("protein", "gene"), ("protein", "plasma membrane"),
                   ("gene", "membrane"), ("protein",)]
        warm = CandidateNetworkGenerator(fig1_federation_module, index=index)
        warm.MAX_STEINER_TREES = 5
        for _round in range(2):
            for keywords in queries:
                fresh = CandidateNetworkGenerator(fig1_federation_module,
                                                  index=index)
                kq = KeywordQuery("K", keywords, k=5)
                assert [cq.expr for cq in warm.generate(kq).cqs] \
                    == [cq.expr for cq in fresh.generate(kq).cqs]
        assert 0 < len(warm._steiner_memo) <= 5

    def test_triples_format(self, generator):
        uq = generator.generate(KeywordQuery("K", ("protein",), k=5))
        triples = uq.triples()
        assert all(t[0] == uq.uq_id for t in triples)
        bounds = [cq.upper_bound for _u, cq, _c in triples]
        assert bounds == sorted(bounds, reverse=True)

    def test_alternate_paths_produced(self, generator):
        # The Figure 1 schema offers TP-E2M and UP-RL routes between
        # protein tables and InterPro; a protein+term query should
        # produce at least two structurally different trees.
        uq = generator.generate(
            KeywordQuery("K", ("protein", "plasma membrane"), k=5))
        shapes = {cq.expr.relations for cq in uq.cqs}
        assert len(shapes) >= 2


class TestLoadedRows:
    """``Federation.load`` reaches the keyword layer: the inverted
    index, the generator's keyword-match memo and the plan repository's
    expansion templates follow the federation's statistics epoch, so a
    generator that served queries before the load expands as a new one
    built after it."""

    ROW = {"ac": 10000, "nam": "quokka membrane", "relevance": 0.5}

    @staticmethod
    def expansion(generator, keywords):
        uq = generator.generate(KeywordQuery("K", keywords, k=5))
        return [(cq.expr, cq.matches, cq.upper_bound) for cq in uq.cqs]

    def test_loaded_rows_match_like_a_fresh_generator(self):
        from repro.common.config import ExecutionConfig
        from repro.data.figure1 import figure1_federation
        from repro.optimizer.repository import PlanRepository

        from tests.conftest import TINY_FIG1_CARDS

        # A federation of its own: the load must not reach other tests.
        federation = figure1_federation(
            seed=7, cardinalities=dict(TINY_FIG1_CARDS), domain_factor=0.7)
        served = CandidateNetworkGenerator(
            federation,
            repository=PlanRepository(federation, ExecutionConfig(k=5)))
        before = self.expansion(served, ("membrane", "protein"))
        with pytest.raises(QueryError):
            served.generate(KeywordQuery("K", ("quokka",), k=5))
        federation.load("UP", [self.ROW])
        fresh = CandidateNetworkGenerator(federation)
        for keywords in [("quokka",), ("membrane", "protein")]:
            assert self.expansion(served, keywords) \
                == self.expansion(fresh, keywords), keywords
        # The loaded row moved the "membrane" match on UP.nam, so the
        # expansion served before the load is not the one served now.
        assert self.expansion(served, ("membrane", "protein")) != before
