"""Tests for seeded randomness helpers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import ZipfSampler, make_rng, poisson_delay, zipf_scores


class TestMakeRng:
    def test_same_seed_same_stream_is_deterministic(self):
        a = make_rng(42, "x")
        b = make_rng(42, "x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_streams_differ(self):
        a = make_rng(42, "x")
        b = make_rng(42, "y")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = make_rng(1, "x")
        b = make_rng(2, "x")
        assert a.random() != b.random()

    def test_multiple_stream_labels(self):
        a = make_rng(1, "x", "inner", 3)
        b = make_rng(1, "x", "inner", 4)
        assert a.random() != b.random()


class TestZipfSampler:
    def test_rejects_empty_universe(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)

    def test_rejects_negative_theta(self):
        with pytest.raises(ValueError):
            ZipfSampler(10, theta=-1.0)

    def test_samples_in_range(self):
        sampler = ZipfSampler(10, rng=make_rng(0, "z"))
        for _ in range(200):
            assert 0 <= sampler.sample() < 10

    def test_head_is_most_frequent(self):
        sampler = ZipfSampler(50, theta=1.0, rng=make_rng(0, "z"))
        counts = [0] * 50
        for _ in range(5000):
            counts[sampler.sample()] += 1
        assert counts[0] == max(counts)
        assert counts[0] > counts[10]

    def test_theta_zero_is_roughly_uniform(self):
        sampler = ZipfSampler(4, theta=0.0, rng=make_rng(0, "z"))
        counts = [0] * 4
        for _ in range(8000):
            counts[sampler.sample()] += 1
        for count in counts:
            assert 1500 < count < 2500

    def test_sample_many_length(self):
        sampler = ZipfSampler(5, rng=make_rng(0, "z"))
        assert len([sampler.sample() for _ in range(17)]) == 17

    def test_choice_requires_matching_length(self):
        sampler = ZipfSampler(3, rng=make_rng(0, "z"))
        with pytest.raises(ValueError):
            sampler.choice(["a", "b"])

    def test_choice_returns_member(self):
        sampler = ZipfSampler(3, rng=make_rng(0, "z"))
        items = ["a", "b", "c"]
        for _ in range(20):
            assert sampler.choice(items) in items

    def test_single_element_universe(self):
        sampler = ZipfSampler(1, rng=make_rng(0, "z"))
        assert sampler.sample() == 0


class TestPoissonDelay:
    def test_zero_mean_is_zero(self):
        assert poisson_delay(make_rng(0, "d"), 0.0) == 0.0

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            poisson_delay(make_rng(0, "d"), -1.0)

    def test_delays_positive(self):
        rng = make_rng(0, "d")
        for _ in range(100):
            assert poisson_delay(rng, 0.002) > 0

    def test_mean_approximates_parameter(self):
        rng = make_rng(0, "d")
        n = 20000
        total = sum(poisson_delay(rng, 0.002) for _ in range(n))
        assert math.isclose(total / n, 0.002, rel_tol=0.1)


class TestZipfScores:
    def test_scores_in_unit_interval(self):
        scores = zipf_scores(make_rng(0, "s"), 500)
        assert all(0.0 < s <= 1.0 for s in scores)

    def test_top_score_common(self):
        scores = zipf_scores(make_rng(0, "s"), 2000, distinct=100)
        top = sum(1 for s in scores if s == 1.0)
        assert top > 100  # rank 0 dominates under Zipf

    @given(st.integers(min_value=1, max_value=300))
    @settings(max_examples=25, deadline=None)
    def test_length_matches_request(self, count):
        assert len(zipf_scores(make_rng(1, "s"), count)) == count
