"""Tests for the query batcher and the metrics layer."""

import pytest

from repro.atc.batcher import QueryBatcher
from repro.keyword.queries import UserQuery
from repro.obs import Metrics, OptimizerRecord, UQRecord

from tests.conftest import abc_expr, load_triple_federation, make_cq


def make_uq(uq_id, arrival, fed):
    return UserQuery(uq_id, ("kw",),
                     [make_cq(abc_expr(), fed, f"{uq_id}-c", uq_id)],
                     k=3, arrival=arrival)


@pytest.fixture()
def fed():
    return load_triple_federation()


class TestBatcher:
    def test_batches_of_size(self, fed):
        batcher = QueryBatcher(batch_size=2, window=100)
        for i in range(5):
            batcher.submit(make_uq(f"u{i}", float(i), fed))
        batches = batcher.drain()
        assert [len(b.uqs) for b in batches] == [2, 2, 1]

    def test_window_closes_batch(self, fed):
        batcher = QueryBatcher(batch_size=10, window=5)
        batcher.submit(make_uq("u1", 0.0, fed))
        batcher.submit(make_uq("u2", 3.0, fed))
        batcher.submit(make_uq("u3", 50.0, fed))
        batches = batcher.drain()
        assert [len(b.uqs) for b in batches] == [2, 1]

    def test_dispatch_time_is_last_arrival(self, fed):
        batcher = QueryBatcher(batch_size=3, window=100)
        batcher.submit(make_uq("u1", 1.0, fed))
        batcher.submit(make_uq("u2", 4.0, fed))
        batch = batcher.drain()[0]
        assert batch.dispatch_time == 4.0

    def test_arrival_order_respected(self, fed):
        batcher = QueryBatcher(batch_size=2, window=100)
        batcher.submit(make_uq("u2", 5.0, fed))
        batcher.submit(make_uq("u1", 1.0, fed))
        batch = batcher.drain()[0]
        assert [u.uq_id for u in batch.uqs] == ["u1", "u2"]

    def test_drain_clears_pending(self, fed):
        batcher = QueryBatcher(batch_size=2)
        batcher.submit(make_uq("u1", 0.0, fed))
        batcher.drain()
        assert batcher.drain() == []

    def test_cq_count(self, fed):
        batcher = QueryBatcher(batch_size=5)
        for uq_id, arrival in (("u1", 0.0), ("u2", 1.0)):
            batcher.submit(make_uq(uq_id, arrival, fed))
        (batch,) = batcher.drain()
        assert sum(len(uq.cqs) for uq in batch.uqs) == 2

    def test_empty_drain(self):
        assert QueryBatcher().drain() == []


class TestPopReady:
    """Online (time-driven) batch closing for the service layer."""

    def test_not_ready_while_window_open(self, fed):
        batcher = QueryBatcher(batch_size=5, window=10)
        batcher.submit(make_uq("u1", 0.0, fed))
        assert batcher.pop_ready(now=5.0) == []
        assert batcher.pending_count == 1

    def test_full_batch_closes_immediately(self, fed):
        batcher = QueryBatcher(batch_size=2, window=100)
        batcher.submit(make_uq("u1", 0.0, fed))
        batcher.submit(make_uq("u2", 1.0, fed))
        batches = batcher.pop_ready(now=1.0)
        assert [len(b.uqs) for b in batches] == [2]
        assert batches[0].dispatch_time == 1.0
        assert batcher.pending_count == 0

    def test_window_expiry_dispatches_partial_batch(self, fed):
        batcher = QueryBatcher(batch_size=5, window=10)
        batcher.submit(make_uq("u1", 0.0, fed))
        batches = batcher.pop_ready(now=10.5)
        assert [len(b.uqs) for b in batches] == [1]
        # Online, nobody knows no further query is coming: the batch
        # dispatches when the collection window runs out.
        assert batches[0].dispatch_time == 10.0

    def test_future_arrivals_stay_pending(self, fed):
        batcher = QueryBatcher(batch_size=2, window=10)
        batcher.submit(make_uq("u1", 0.0, fed))
        batcher.submit(make_uq("u2", 50.0, fed))
        batches = batcher.pop_ready(now=20.0)
        assert [u.uq_id for b in batches for u in b.uqs] == ["u1"]
        assert batcher.pending_count == 1

    def test_batch_indices_unique_across_calls(self, fed):
        batcher = QueryBatcher(batch_size=1, window=10)
        batcher.submit(make_uq("u1", 0.0, fed))
        batcher.submit(make_uq("u2", 1.0, fed))
        first = batcher.pop_ready(now=2.0)
        batcher.submit(make_uq("u3", 3.0, fed))
        second = batcher.drain()
        indices = [b.index for b in first + second]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)


class TestPopReadyEdges:
    """Boundary behaviour of the online batch-closing rules."""

    def test_window_expiry_exactly_at_boundary_keeps_collecting(self, fed):
        # The window is inclusive: at now == opened_at + window the
        # batch is still collecting (expiry needs now to *pass* it).
        batcher = QueryBatcher(batch_size=5, window=10)
        batcher.submit(make_uq("u1", 2.0, fed))
        assert batcher.pop_ready(now=12.0) == []
        assert batcher.pending_count == 1
        batches = batcher.pop_ready(now=12.0 + 1e-9)
        assert [len(b.uqs) for b in batches] == [1]
        assert batches[0].dispatch_time == 12.0

    def test_member_arriving_exactly_at_window_edge_joins(self, fed):
        # An arrival exactly ``window`` after the opener still belongs
        # to the batch (the split needs a gap strictly beyond it).
        batcher = QueryBatcher(batch_size=5, window=10)
        batcher.submit(make_uq("u1", 0.0, fed))
        batcher.submit(make_uq("u2", 10.0, fed))
        assert batcher.pop_ready(now=10.0) == []  # window still open
        batches = batcher.pop_ready(now=10.1)     # ...now expired
        assert [u.uq_id for b in batches for u in b.uqs] == ["u1", "u2"]
        assert batches[0].dispatch_time == 10.0   # closed by expiry

    def test_simultaneous_size_and_window_trigger(self, fed):
        # The closing member arrives exactly when the window expires:
        # the size rule wins and the batch dispatches at that arrival,
        # not at the (equal) expiry instant -- and never twice.
        batcher = QueryBatcher(batch_size=2, window=10)
        batcher.submit(make_uq("u1", 0.0, fed))
        batcher.submit(make_uq("u2", 10.0, fed))
        batches = batcher.pop_ready(now=10.0)
        assert [len(b.uqs) for b in batches] == [2]
        assert batches[0].closed_at is None       # closed by size
        assert batches[0].dispatch_time == 10.0
        assert batcher.pop_ready(now=30.0) == []  # nothing left behind

    def test_size_trigger_with_expired_window_in_one_call(self, fed):
        # One call observes both a window-expired partial batch and a
        # size-closed one; each keeps its own dispatch rule.
        batcher = QueryBatcher(batch_size=2, window=5)
        batcher.submit(make_uq("u1", 0.0, fed))
        batcher.submit(make_uq("u2", 20.0, fed))
        batcher.submit(make_uq("u3", 21.0, fed))
        batches = batcher.pop_ready(now=25.0)
        assert [len(b.uqs) for b in batches] == [1, 2]
        assert batches[0].dispatch_time == 5.0    # expiry of u1's window
        assert batches[1].dispatch_time == 21.0   # u3 filled the batch
        assert batcher.pending_count == 0

    def test_pop_ready_with_empty_pending_queue(self, fed):
        batcher = QueryBatcher(batch_size=2, window=10)
        assert batcher.pop_ready(now=100.0) == []
        assert batcher.pending_count == 0
        # Draining right after an empty pop is also a no-op.
        assert batcher.drain() == []
        # And an empty pop between real traffic leaves state intact.
        batcher.submit(make_uq("u1", 200.0, fed))
        assert batcher.pop_ready(now=150.0) == []   # u1 not yet arrived
        assert batcher.pending_count == 1


class TestMetrics:
    def test_record_stream_read(self):
        metrics = Metrics()
        metrics.record_stream_read("s1", 0.002)
        metrics.record_stream_read("s1", 0.003)
        assert metrics.stream_tuples_read == 2
        assert metrics.stream_read_time == pytest.approx(0.005)
        assert metrics.per_source_reads["s1"] == 2

    def test_record_probe_cached(self):
        metrics = Metrics()
        metrics.record_probe(0.002, cached=False)
        metrics.record_probe(0.0, cached=True)
        assert metrics.probes_performed == 2
        assert metrics.probe_cache_hits == 1

    def test_breakdown_fractions_sum_to_one(self):
        metrics = Metrics()
        metrics.record_stream_read("s", 0.5)
        metrics.record_probe(0.3, cached=False)
        metrics.record_join_probe(0.2)
        breakdown = metrics.breakdown()
        assert sum(breakdown.values()) == pytest.approx(1.0)
        assert breakdown["stream"] == pytest.approx(0.5)

    def test_breakdown_empty(self):
        assert Metrics().breakdown() == {
            "stream": 0.0, "random_access": 0.0, "join": 0.0}

    def test_total_input_tuples(self):
        metrics = Metrics()
        metrics.record_stream_read("s", 0.1)
        metrics.record_probe(0.1, cached=False)
        assert metrics.total_input_tuples == 2

    def test_merge_from(self):
        a, b = Metrics(), Metrics()
        a.record_stream_read("s", 0.1)
        b.record_stream_read("s", 0.2)
        b.record_uq(UQRecord("u1", 0.0, 0.0, completed=5.0))
        b.optimizer_records.append(OptimizerRecord(3, 7, 0.01, 5))
        a.merge_from(b)
        assert a.stream_tuples_read == 2
        assert a.stream_read_time == pytest.approx(0.3)
        assert "u1" in a.uq_records
        assert len(a.optimizer_records) == 1

    def test_uq_record_latency(self):
        record = UQRecord("u", arrival=2.0, started=3.0, completed=7.5)
        assert record.latency == pytest.approx(5.5)
        assert record.execution_time == pytest.approx(4.5)

    def test_uq_record_incomplete(self):
        record = UQRecord("u", arrival=2.0, started=3.0)
        assert record.latency is None
        assert record.execution_time is None

    def test_snapshot_keys(self):
        snapshot = Metrics().snapshot()
        assert "stream_read_time" in snapshot
        assert "total_input_tuples" in snapshot
