"""Tests for streaming / random-access / list sources."""

import math

import pytest

from repro.common.clock import VirtualClock
from repro.common.config import DelayModel
from repro.common.errors import DataError
from repro.common.rng import make_rng
from repro.data.rows import Row, STuple
from repro.data.sources import (
    EXHAUSTED,
    ListSource,
    RandomAccessSource,
    StreamingSource,
)
from repro.plan.expressions import SPJ, Atom, JoinPred
from repro.obs import Metrics


def make_stream(federation, deterministic=True):
    expr = SPJ(
        [Atom("A", "A"), Atom("B", "B")],
        [JoinPred.normalized("A", "x", "B", "x")],
    )
    clock = VirtualClock()
    metrics = Metrics()
    delays = DelayModel(deterministic=deterministic)
    source = StreamingSource("J0", expr, federation.database("s1"),
                             clock, metrics, delays, make_rng(0, "t"))
    return source, clock, metrics


class TestStreamingSource:
    def test_bound_before_read_is_max(self, triple_federation):
        source, _clock, _metrics = make_stream(triple_federation)
        first_bound = source.bound()
        tup = source.read()
        assert tup.intrinsic == first_bound

    def test_reads_nonincreasing(self, triple_federation):
        source, _clock, _metrics = make_stream(triple_federation)
        scores = []
        while not source.exhausted:
            scores.append(source.read().intrinsic)
        assert scores == sorted(scores, reverse=True)

    def test_exhaustion(self, triple_federation):
        source, _clock, _metrics = make_stream(triple_federation)
        for _ in range(10):
            source.read()
        assert source.exhausted
        assert source.read() is None
        assert source.bound() == EXHAUSTED

    def test_clock_charged_per_read(self, triple_federation):
        source, clock, metrics = make_stream(triple_federation)
        source.read()
        source.read()
        assert clock.now == pytest.approx(0.004)
        assert metrics.stream_tuples_read == 2
        assert metrics.stream_read_time == pytest.approx(0.004)

    def test_position_tracking(self, triple_federation):
        source, _clock, _metrics = make_stream(triple_federation)
        assert source.tuples_read == 0
        source.read()
        assert source.tuples_read == 1
        assert source.remaining() == 3

    def test_reset_rewinds(self, triple_federation):
        source, _clock, _metrics = make_stream(triple_federation)
        first = source.read()
        source.read()
        source.reset()
        assert source.tuples_read == 0
        assert source.read() == first

    def test_peek_all_read(self, triple_federation):
        source, _clock, _metrics = make_stream(triple_federation)
        a = source.read()
        b = source.read()
        assert source._producer.emitted[:source._position] == [a, b]

    def test_randomized_delays_positive(self, triple_federation):
        source, clock, _m = make_stream(triple_federation,
                                        deterministic=False)
        source.read()
        assert clock.now > 0


class TestRandomAccessSource:
    def make(self, federation):
        clock = VirtualClock()
        metrics = Metrics()
        source = RandomAccessSource(
            "raB", "B", federation.database("s1"), clock, metrics,
            DelayModel(deterministic=True), make_rng(0, "ra"),
        )
        return source, clock, metrics

    def test_probe_returns_matches(self, triple_federation):
        source, _c, _m = self.make(triple_federation)
        assert len(source.probe("x", 2)) == 2

    def test_probe_cache_avoids_delay(self, triple_federation):
        source, clock, metrics = self.make(triple_federation)
        source.probe("x", 2)
        t1 = clock.now
        source.probe("x", 2)
        assert clock.now == t1
        assert metrics.probe_cache_hits == 1
        assert metrics.probes_performed == 2

    def test_probe_stuples_contributions(self, triple_federation):
        source, _c, _m = self.make(triple_federation)
        stuples = source.probe_stuples("B", "x", 2)
        assert all(t.intrinsic == 0.0 for t in stuples)  # B has no score
        assert all(t.aliases == frozenset({"B"}) for t in stuples)

    def test_cache_size_and_clear(self, triple_federation):
        source, _c, _m = self.make(triple_federation)
        source.probe("x", 1)
        source.probe("x", 2)
        assert source.cache_size == 3
        assert source.clear_cache() == 3
        assert source.cache_size == 0

    def test_cache_size_tracks_residency_without_caching(
            self, triple_federation):
        """PR 3 regression: with ``use_cache=False`` every probe of the
        same key overwrites its slot; the gauge (the admission
        controller's state input) must track residency, not traffic."""
        source, _c, _m = self.make(triple_federation)
        source.use_cache = False
        for _ in range(5):
            source.probe("x", 2)
        assert source.cache_size == 2   # the 2 resident rows, not 10

    def test_max_contribution(self, triple_federation):
        source, _c, _m = self.make(triple_federation)
        assert source.max_contribution() == 0.0


class TestListSource:
    def tuples(self):
        return [
            STuple.single("a", Row("A", i, {"x": i}), score)
            for i, score in enumerate([0.9, 0.5, 0.5, 0.1])
        ]

    def test_reads_in_order(self):
        source = ListSource("L", self.tuples())
        assert source.read().intrinsic == 0.9
        assert source.bound() == 0.5

    def test_rejects_unsorted(self):
        bad = list(reversed(self.tuples()))
        with pytest.raises(DataError):
            ListSource("L", bad)

    def test_free_reads_counted_as_reuse(self):
        metrics = Metrics()
        source = ListSource("L", self.tuples(), metrics=metrics)
        source.read()
        assert metrics.stream_tuples_read == 0  # not input consumption
        assert metrics.tuples_reused == 1
        assert metrics.stream_read_time == 0.0

    def test_exhaustion(self):
        source = ListSource("L", self.tuples())
        for _ in range(4):
            source.read()
        assert source.exhausted
        assert source.read() is None
        assert source.bound() == -math.inf

    def test_empty_list(self):
        source = ListSource("L", [])
        assert source.exhausted
        assert source.remaining() == 0
