"""Tests for monotone score functions and the three paper models."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ScoringError
from repro.data.rows import Row, STuple
from repro.scoring.base import MonotoneScore, intrinsic_order_is_score_order
from repro.scoring.models import (
    banks_score,
    contribution_caps,
    discover_score,
    qsystem_score,
    tree_edges,
    user_coefficients,
)

from tests.conftest import abc_expr


def stuple(ca=0.5, cb=0.0, cc=0.3):
    return STuple(
        {"A": Row("A", 1, {}), "B": Row("B", 2, {}), "C": Row("C", 3, {})},
        {"A": ca, "B": cb, "C": cc},
    )


def uniform_score(static=0.0, transform="identity"):
    return MonotoneScore(
        {"A": 1.0, "B": 1.0, "C": 1.0}, static, transform,
        {"A": 1.0, "B": 0.0, "C": 1.0},
    )


class TestMonotoneScore:
    def test_score_is_weighted_sum(self):
        assert uniform_score().score(stuple()) == pytest.approx(0.8)

    def test_static_added(self):
        assert uniform_score(static=2.0).score(stuple()) == pytest.approx(2.8)

    def test_exp2_transform(self):
        score = uniform_score(static=-2.0, transform="exp2")
        assert score.score(stuple(0.5, 0.0, 0.5)) == pytest.approx(2 ** -1.0)

    def test_unknown_transform_rejected(self):
        with pytest.raises(ScoringError):
            MonotoneScore({"A": 1.0}, 0.0, "cube", {"A": 1.0})

    def test_negative_weight_rejected(self):
        with pytest.raises(ScoringError):
            MonotoneScore({"A": -1.0}, 0.0, "identity", {"A": 1.0})

    def test_missing_caps_rejected(self):
        with pytest.raises(ScoringError):
            MonotoneScore({"A": 1.0}, 0.0, "identity", {})

    def test_missing_contribution_rejected(self):
        score = uniform_score()
        bad = STuple({"A": Row("A", 1, {})}, {"A": 0.5})
        with pytest.raises(ScoringError):
            score.score(bad)

    def test_score_reads_contributions_by_alias(self):
        score = MonotoneScore({"A": 1.0, "C": 4.0}, 0.0, "identity",
                              {"A": 1.0, "C": 1.0})
        rows = {"A": Row("A", 1, {}), "C": Row("C", 3, {})}
        forward = STuple(rows, {"A": 0.5, "C": 0.25})
        backward = STuple(rows, {"C": 0.25, "A": 0.5})
        assert forward.shape is not backward.shape
        assert score.score(forward) == score.score(backward) == 1.5

    def test_max_score_uses_caps(self):
        assert uniform_score().max_score() == pytest.approx(2.0)

    def test_bound_with_partial_knowledge(self):
        score = uniform_score()
        # A known at 0.2, others capped at 1.0 + 0.0
        assert score.bound({"A": 0.2}) == pytest.approx(1.2)

    def test_bound_with_stream_caps(self):
        score = uniform_score()
        bound = score.bound({"A": 0.2}, unbound_caps={"C": 0.4})
        assert bound == pytest.approx(0.6)

    def test_bound_neg_infinity_propagates(self):
        score = uniform_score()
        assert score.bound({"A": -math.inf}) == -math.inf

    def test_bound_from_intrinsic_uniform_exact(self):
        score = uniform_score()
        assert score.bound_from_intrinsic(0.7) == pytest.approx(0.7)

    def test_bound_from_intrinsic_clamped_by_caps(self):
        score = uniform_score()
        assert score.bound_from_intrinsic(10.0) == pytest.approx(2.0)

    def test_bound_from_intrinsic_exhausted(self):
        assert uniform_score().bound_from_intrinsic(-math.inf) == -math.inf

    def test_bound_dominates_scores(self):
        score = uniform_score()
        tup = stuple(0.5, 0.0, 0.3)
        assert score.bound_from_intrinsic(tup.intrinsic) >= score.score(tup)

    def test_restricted(self):
        restricted = uniform_score(static=5.0).restricted({"A", "B"})
        assert restricted.static == 0.0
        assert set(restricted.weights) == {"A", "B"}

    def test_restricted_unknown_alias_rejected(self):
        with pytest.raises(ScoringError):
            uniform_score().restricted({"Z"})

    def test_renamed(self):
        renamed = uniform_score().renamed({"A": "X"})
        assert "X" in renamed.weights
        assert "A" not in renamed.weights

    def test_renamed_collision_rejected(self):
        with pytest.raises(ScoringError):
            uniform_score().renamed({"A": "B"})

    def test_intrinsic_order_detection(self):
        assert intrinsic_order_is_score_order(uniform_score())
        non_uniform = MonotoneScore(
            {"A": 1.0, "B": 2.0}, 0.0, "identity", {"A": 1.0, "B": 1.0}
        )
        assert not intrinsic_order_is_score_order(non_uniform)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotonicity(self, low, high):
        low, high = min(low, high), max(low, high)
        score = uniform_score()
        assert score.score(stuple(ca=low)) <= score.score(stuple(ca=high))


class TestModels:
    def test_contribution_caps(self, triple_federation):
        caps = contribution_caps(abc_expr(), triple_federation)
        assert caps["A"] == 0.9
        assert caps["B"] == 0.0
        assert caps["C"] == 0.8

    def test_tree_edges_found(self, triple_federation):
        edges = tree_edges(abc_expr(), triple_federation.schema)
        assert len(edges) == 2

    def test_discover_weights(self, triple_federation):
        score = discover_score(abc_expr(), triple_federation)
        assert all(w == pytest.approx(1 / 3) for w in score.weights.values())

    def test_discover_size_only_variant(self, triple_federation):
        score = discover_score(abc_expr(), triple_federation,
                               use_ir_scores=False)
        assert score.max_score() == pytest.approx(1 / 3)

    def test_qsystem_scores_in_unit_range(self, triple_federation):
        score = qsystem_score(abc_expr(), triple_federation)
        top = score.max_score()
        assert 0.0 < top <= 1.0  # 2^-static_cost with static_cost > 0

    def test_qsystem_multipliers_change_score(self, triple_federation):
        base = qsystem_score(abc_expr(), triple_federation)
        weighted = qsystem_score(abc_expr(), triple_federation,
                                 edge_multipliers={"A": 2.0})
        assert weighted.max_score() != base.max_score()

    def test_qsystem_monotone_in_contribs(self, triple_federation):
        score = qsystem_score(abc_expr(), triple_federation)
        lo = STuple(
            {"A": Row("A", 1, {}), "B": Row("B", 2, {}), "C": Row("C", 3, {})},
            {"A": 0.1, "B": 0.0, "C": 0.1},
        )
        hi = STuple(
            {"A": Row("A", 4, {}), "B": Row("B", 5, {}), "C": Row("C", 6, {})},
            {"A": 0.9, "B": 0.0, "C": 0.8},
        )
        assert score.score(hi) > score.score(lo)

    def test_banks_score_monotone_weights(self, triple_federation):
        score = banks_score(abc_expr(), triple_federation)
        assert all(w >= 0 for w in score.weights.values())
        assert score.static > 0

    def test_user_coefficients_deterministic(self):
        a = user_coefficients(["R", "S"], seed=1, user="u1")
        b = user_coefficients(["R", "S"], seed=1, user="u1")
        assert a == b

    def test_user_coefficients_differ_across_users(self):
        relations = [f"R{i}" for i in range(30)]
        a = user_coefficients(relations, seed=1, user="u1")
        b = user_coefficients(relations, seed=1, user="u2")
        assert a != b

    def test_user_coefficients_in_range(self):
        coeffs = user_coefficients(["R"] * 5, seed=2, user="u")
        assert all(0.0 < v <= 1.0 for v in coeffs.values())
