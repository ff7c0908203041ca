"""Tests for the client API: handles, streaming, cancellation, and
deadlines.

Covers the one front door every topology serves through, the
:class:`QueryHandle` lifecycle (status transitions,
``latency``/``done`` edge semantics), progressive consumption through
``answers_so_far``/``results()``, cancellation of engine queries,
coalesced followers and their leaders, deadline enforcement at engine
precision, and the load generator's abandonment model.
"""

import math

import pytest

from repro.common.config import DelayModel, ExecutionConfig, SharingMode
from repro.data.figure1 import figure1_federation
from repro.data.inverted import InvertedIndex
from repro.service import (
    LoadConfig,
    QService,
    QueryHandle,
    QueryStatus,
    ServiceConfig,
    ShardedQService,
    Telemetry,
    generate_abandonments,
    generate_load,
    normalize_key,
)

CARDS = {
    "UP": 60, "TP": 50, "E": 40, "E2M": 70, "I2G": 70,
    "T": 60, "TS": 65, "G2G": 75, "GI": 60, "RL": 65,
}
K = 8
KWS = ("protein", "plasma membrane")
#: A query whose rank-merge emits one answer at a time on this
#: federation (KWS releases its whole top-k in one frontier collapse),
#: so streaming tests can observe genuinely progressive emission.
STREAMY = ("gene", "membrane")


@pytest.fixture(scope="module")
def fed():
    return figure1_federation(seed=7, cardinalities=dict(CARDS),
                              domain_factor=0.7)


@pytest.fixture(scope="module")
def index(fed):
    return InvertedIndex(fed)


def config(**overrides):
    base = ExecutionConfig(mode=SharingMode.ATC_FULL, k=K, seed=1,
                           batch_window=2.0,
                           delays=DelayModel(deterministic=True))
    return base.with_overrides(**overrides)


def make_service(fed, index, service=None, **overrides):
    return QService(fed, config(**overrides), service=service, index=index)


def kq(kq_id, keywords=KWS, arrival=0.0, k=K):
    from repro.keyword.queries import KeywordQuery
    return KeywordQuery(kq_id, tuple(keywords), k=k, arrival=arrival)


class TestProtocolConformance:
    def test_both_services_implement_the_protocol(self, fed, index):
        """The single-node service *is* the front door, over one
        shard, and every handle answers to the front door."""
        svc = make_service(fed, index)
        fleet = ShardedQService(fed, config(), n_shards=2, index=index)
        assert isinstance(svc, ShardedQService)
        assert len(svc.workers) == 1 and svc.router is None
        for service in (svc, fleet):
            handle = service.submit(kq("Q1"))
            assert handle.service is service
            assert handle.shard is not None

    def test_submit_returns_query_handle(self, fed, index):
        svc = make_service(fed, index)
        handle = svc.submit(kq("Q1"))
        assert isinstance(handle, QueryHandle)
        assert handle.status is QueryStatus.IN_FLIGHT
        # v1 string comparisons keep working (str-subclass enum).
        assert handle.status == "in-flight"

    def test_handle_is_exported_from_repro(self):
        import repro
        assert repro.QueryHandle is QueryHandle
        assert repro.QueryStatus is QueryStatus


class TestStatusLifecycle:
    def test_terminal_states(self):
        for status in QueryStatus:
            expected = status in (QueryStatus.DONE, QueryStatus.REJECTED,
                                  QueryStatus.CANCELLED, QueryStatus.EXPIRED,
                                  QueryStatus.FAILED)
            assert status.terminal is expected

    def test_done_means_full_answer_only(self, fed, index):
        svc = make_service(fed, index)
        handle = svc.submit(kq("Q1"))
        assert not handle.done and not handle.terminal
        svc.drain()
        assert handle.done and handle.terminal

    def test_status_string_round_trip(self):
        assert QueryStatus("expired") is QueryStatus.EXPIRED
        assert str(QueryStatus.CANCELLED) == "cancelled"


class TestStreaming:
    def test_results_streams_before_completion(self, fed, index):
        svc = make_service(fed, index)
        handle = svc.submit(kq("Q1", keywords=STREAMY, k=12))
        it = handle.results()
        first = next(it)
        # The first answer arrived while the query is still in flight:
        # streaming, not harvest-then-read.
        assert handle.status is QueryStatus.IN_FLIGHT
        rest = list(it)
        assert handle.done
        answers = [first] + rest
        assert len(answers) == len(handle.answers)
        assert [a.score for a in answers] == \
            [a.score for a in handle.answers]

    def test_streamed_answers_equal_batch_answers(self, fed, index):
        streamed = make_service(fed, index)
        h1 = streamed.submit(kq("Q1"))
        streamed_answers = list(h1.results())

        batch = make_service(fed, index)
        h2 = batch.submit(kq("Q1"))
        batch.drain()
        assert [a.score for a in streamed_answers] == \
            [a.score for a in h2.answers]
        assert [a.provenance for a in streamed_answers] == \
            [a.provenance for a in h2.answers]

    def test_answers_so_far_monotone(self, fed, index):
        svc = make_service(fed, index)
        handle = svc.submit(kq("Q1"))
        seen = 0
        assert handle.answers_so_far() == []
        for _ in handle.results():
            now = len(handle.answers_so_far())
            assert now >= seen
            seen = now
        assert len(handle.answers_so_far()) == len(handle.answers)

    def test_results_on_done_handle_yields_everything(self, fed, index):
        svc = make_service(fed, index)
        handle = svc.submit(kq("Q1"))
        svc.drain()
        assert [a.score for a in handle.results()] == \
            [a.score for a in handle.answers]

    def test_deferred_query_streams_once_admitted(self, fed, index):
        """results() on a parked query keeps pumping while in-flight
        work can free the budget, then streams the full top-k."""
        svc = make_service(
            fed, index,
            service=ServiceConfig(max_in_flight=1, coalesce=False,
                                  admission_policy="defer"))
        svc.submit(kq("Q1"))
        svc.step(2.1)
        deferred = svc.submit(kq("Q2", keywords=STREAMY, k=12, arrival=2.2))
        assert deferred.status is QueryStatus.DEFERRED
        answers = list(deferred.results())
        assert deferred.done
        assert len(answers) == 12

    def test_streaming_dispatches_due_batches(self, fed, index):
        """Pumping one handle is the passage of virtual time: a
        co-pending query whose batch window closes under the driven
        clock must dispatch mid-stream, not starve until drain."""
        svc = make_service(fed, index, batch_window=0.5)
        a = svc.submit(kq("A"))                 # dispatches at 0.5
        b = svc.submit(kq("B", keywords=STREAMY, k=12, arrival=0.6))
        graphs = svc.workers[0].engine.qs.uq_graphs
        assert graphs.get(a.uq_id) is not None
        assert graphs.get(b.uq_id) is None      # collecting
        list(a.results())                       # drives the clock past 1.1
        assert a.done
        # B's batch fell due under A's streaming and was dispatched.
        assert graphs.get(b.uq_id) is not None
        svc.drain()
        assert b.done and len(b.answers) == 12

    def test_results_through_fleet(self, fed, index):
        fleet = ShardedQService(fed, config(), n_shards=2,
                                routing="roundrobin", index=index)
        handle = fleet.submit(kq("Q1"))
        answers = list(handle.results())
        assert handle.done and len(answers) == len(handle.answers)

    def test_ttfa_strictly_before_completion(self, fed, index):
        svc = make_service(fed, index)
        handle = svc.submit(kq("Q1", keywords=STREAMY, k=12))
        report = svc.drain()
        ttfa = report.telemetry.ttfa_percentiles()["ttfa_p50"]
        latency = report.telemetry.latency_percentiles()["p50"]
        assert ttfa is not None and ttfa < latency


class TestCancellation:
    def test_cancel_in_flight_query(self, fed, index):
        svc = make_service(fed, index)
        handle = svc.submit(kq("Q1"))
        assert handle.cancel()
        assert handle.status is QueryStatus.CANCELLED
        assert handle.terminal and not handle.done
        assert handle.latency is None
        report = svc.drain()
        assert report.telemetry.cancelled == 1
        assert report.telemetry.completed == 0

    def test_cancel_is_idempotent(self, fed, index):
        svc = make_service(fed, index)
        handle = svc.submit(kq("Q1"))
        assert handle.cancel()
        assert not handle.cancel()
        assert not svc.cancel(handle)

    def test_cancel_mid_stream_keeps_partial_answers(self, fed, index):
        svc = make_service(fed, index)
        handle = svc.submit(kq("Q1", keywords=STREAMY, k=12))
        it = handle.results()
        next(it)
        assert handle.cancel()
        assert handle.status is QueryStatus.CANCELLED
        assert len(handle.answers) >= 1   # answers-so-far retained
        assert list(it) == handle.answers[1:]   # iterator drains, then ends

    def test_cancelled_partial_never_reaches_cache(self, fed, index):
        svc = make_service(fed, index)
        handle = svc.submit(kq("Q1", keywords=STREAMY, k=12))
        it = handle.results()
        next(it)
        handle.cancel()
        twin = svc.submit(kq("Q2", keywords=STREAMY, k=12, arrival=10.0))
        svc.drain()
        assert twin.via == "engine"   # not served from a partial cache
        assert twin.done and len(twin.answers) == 12

    def test_cancel_before_dispatch_withdraws_from_batcher(self, fed, index):
        svc = make_service(fed, index)
        handle = svc.submit(kq("Q1"))   # batch still collecting
        assert svc.workers[0].engine.batcher.pending_count == 1
        assert handle.cancel()
        assert svc.workers[0].engine.batcher.pending_count == 0
        report = svc.drain()
        assert handle.status is QueryStatus.CANCELLED
        assert handle.answers == []
        assert report.engine_report.metrics.total_input_tuples == 0

    def test_cancel_deferred_query(self, fed, index):
        svc = make_service(
            fed, index,
            service=ServiceConfig(max_in_flight=1, coalesce=False,
                                  admission_policy="defer"))
        h1 = svc.submit(kq("Q1"))
        svc.step(2.1)
        h2 = svc.submit(kq("Q2", keywords=("membrane", "gene"), arrival=2.2))
        assert h2.status is QueryStatus.DEFERRED
        key = normalize_key(h2.keywords, h2.k)
        assert svc.workers[0].inflight_handle(key) is h2
        assert h2.cancel()
        assert h2.status is QueryStatus.CANCELLED
        assert svc.workers[0].inflight_handle(key) is None
        svc.drain()
        assert h1.done

    def test_cancel_follower_leaves_leader_running(self, fed, index):
        svc = make_service(fed, index)
        leader = svc.submit(kq("L"))
        svc.step(2.05)   # dispatched, mid-execution
        follower = svc.submit(kq("F", arrival=2.1))
        assert follower.via == "coalesced"
        assert follower.cancel()
        assert follower.status is QueryStatus.CANCELLED
        svc.drain()
        assert leader.done and len(leader.answers) == K

    def test_cancel_leader_promotes_follower(self, fed, index):
        svc = make_service(fed, index)
        leader = svc.submit(kq("L"))
        svc.step(2.05)
        follower = svc.submit(kq("F", arrival=2.1))
        assert follower.via == "coalesced"
        assert leader.cancel()
        assert leader.status is QueryStatus.CANCELLED
        svc.drain()
        # The execution survived its original owner's abandonment.
        assert follower.done and len(follower.answers) == K

    def test_cancel_leader_without_followers_frees_execution(self, fed,
                                                             index):
        svc = make_service(fed, index)
        handle = svc.submit(kq("Q1"))
        svc.step(2.05)
        engine = svc.workers[0].engine
        work_at_cancel = engine.report().metrics.total_input_tuples
        assert handle.cancel()
        svc.drain()
        # Nothing drove the dead query after the cancel.
        assert engine.report().metrics.total_input_tuples == \
            work_at_cancel

    def test_engine_cancel_unknown_query(self, fed, index):
        svc = make_service(fed, index)
        assert not svc.workers[0].engine.retire_query("nope", "cancelled")

    def test_cancel_after_direct_engine_drain_loses_to_completion(
            self, fed, index):
        """A query the caller finished by driving the engine directly
        is served, not relabelled: cancel harvests it first."""
        svc = make_service(fed, index)
        handle = svc.submit(kq("Q1"))
        svc.workers[0].engine.drain()
        assert not svc.cancel(handle)
        assert handle.status is QueryStatus.DONE
        assert len(handle.answers) == K
        assert not svc.cancel(handle)

    def test_promoted_follower_is_cancellable(self, fed, index):
        """A promoted follower keeps via == "coalesced" but now owns
        the execution: cancelling it must work (and, as the sole
        remaining rider, tear the execution down)."""
        svc = make_service(fed, index)
        leader = svc.submit(kq("L"))
        svc.step(2.05)
        follower = svc.submit(kq("F", arrival=2.1))
        assert follower.via == "coalesced"
        assert leader.cancel()
        assert follower.cancel()   # promoted: must not be uncancellable
        assert follower.status is QueryStatus.CANCELLED
        report = svc.drain()
        assert report.telemetry.cancelled == 2
        assert report.telemetry.completed == 0

    def test_promoted_follower_expiry_keeps_disposition_invariant(
            self, fed, index):
        """Expiring a promoted follower must hand the execution on to
        the next rider, never leave a terminal handle in the live map
        to be double-resolved at harvest."""
        svc = make_service(fed, index)
        a = svc.submit(kq("A"))
        svc.step(2.05)
        b = svc.submit(kq("B", arrival=2.1), deadline=2.3)
        c = svc.submit(kq("C", arrival=2.15))
        assert b.via == c.via == "coalesced"
        assert a.cancel()          # promotes B (tight deadline)
        svc.step(2.4)              # B's deadline passes mid-flight
        assert b.status is QueryStatus.EXPIRED
        report = svc.drain()
        assert c.done and len(c.answers) == K
        tel = report.telemetry
        assert (tel.completed, tel.cancelled, tel.expired) == (1, 1, 1)
        assert tel.completed + tel.rejected + tel.cancelled \
            + tel.expired == tel.submitted


class TestDeadlines:
    def test_deadline_expires_mid_execution_with_partials(self, fed, index):
        svc = make_service(fed, index)
        handle = svc.submit(kq("Q1"), deadline=2.05)
        svc.step(2.04)
        assert handle.status is QueryStatus.IN_FLIGHT
        svc.step(3.0)
        assert handle.status is QueryStatus.EXPIRED
        assert handle.completed_at == 2.05   # the exact instant
        assert handle.latency is None

    def test_deadline_before_dispatch_withdraws(self, fed, index):
        svc = make_service(fed, index)
        handle = svc.submit(kq("Q1"), deadline=1.0)   # window is 2.0
        svc.step(1.5)
        assert handle.status is QueryStatus.EXPIRED
        assert handle.answers == []

    def test_completion_beats_deadline(self, fed, index):
        svc = make_service(fed, index)
        handle = svc.submit(kq("Q1"), deadline=1000.0)
        report = svc.drain()
        assert handle.done and len(handle.answers) == K
        assert report.telemetry.expired == 0

    def test_deadline_fires_during_drain(self, fed, index):
        svc = make_service(fed, index)
        handle = svc.submit(kq("Q1"), deadline=0.05)
        report = svc.drain()
        assert handle.status is QueryStatus.EXPIRED
        assert handle.completed_at == 0.05
        assert report.telemetry.expired == 1

    def test_default_deadline_from_config(self, fed, index):
        svc = make_service(
            fed, index, service=ServiceConfig(default_deadline=0.5))
        handle = svc.submit(kq("Q1", arrival=3.0))
        assert handle.deadline == 3.5
        svc.drain()
        assert handle.status is QueryStatus.EXPIRED

    def test_follower_deadline_does_not_kill_leader(self, fed, index):
        svc = make_service(fed, index)
        leader = svc.submit(kq("L"))
        svc.step(2.05)
        follower = svc.submit(kq("F", arrival=2.1), deadline=2.11)
        assert follower.via == "coalesced"
        svc.drain()
        assert leader.done and len(leader.answers) == K
        # The follower either expired at its own deadline or -- since
        # parked deadlines are observed at step granularity -- was
        # served when the shared execution completed first.
        assert follower.terminal

    def test_leader_deadline_spares_unbounded_follower(self, fed, index):
        # KWS takes ~1 virtual second of execution after dispatching at
        # the 2.0s window expiry, so at 2.2 it is mid-flight and at 2.6
        # its (now extended) execution is still running.
        svc = make_service(fed, index)
        leader = svc.submit(kq("L"), deadline=2.5)
        follower = svc.submit(kq("F", arrival=2.2))
        assert follower.via == "coalesced"
        svc.step(2.6)
        # The follower has no deadline, so the shared execution must
        # outlive the leader's: the leader expires when the sweep
        # observes the missed deadline, the execution keeps running
        # for the follower.
        assert leader.status is QueryStatus.EXPIRED
        assert leader.completed_at == 2.6   # observation instant
        assert "2.5" in leader.reason       # the missed deadline
        svc.drain()
        assert follower.done and len(follower.answers) == K

    def test_streaming_expiry_is_per_graph(self, fed, index):
        """drive_query (the results() engine) expiring overdue queries
        on the graph it actually executed must not drag down deadlined
        queries on *other* graphs, which were never driven to their
        instant."""
        svc = make_service(fed, index, mode=SharingMode.ATC_CL,
                           cluster_jaccard=0.99)
        a = svc.submit(kq("A", keywords=STREAMY, k=12), deadline=2.15)
        b = svc.submit(kq("B", arrival=0.1), deadline=2.12)
        stream = a.results()
        consumed = [next(stream)]
        # Distinct relation footprints land in distinct ATC-CL
        # clusters -- the isolation scenario this test is about.  Read
        # while both are in flight: a terminal query is released.
        assert svc.workers[0].engine.qs.uq_graphs[a.uq_id] != \
            svc.workers[0].engine.qs.uq_graphs[b.uq_id]
        consumed += list(stream)
        assert a.status is QueryStatus.EXPIRED
        assert 0 < len(consumed) < 12   # partial stream, then expiry
        # B's graph was not driven to 2.12 by A's pumping; its own
        # deadline is still the segmented step/drain's to enforce.
        assert not b.terminal
        svc.drain()
        assert b.status is QueryStatus.EXPIRED
        assert b.completed_at == 2.12

    def test_streaming_expires_coresident_at_its_instant(self, fed, index):
        """Streaming one query drives the whole shared plan graph, so
        a co-resident query's deadline must fire at its exact instant
        mid-drive -- not linger until the next step/drain."""
        svc = make_service(fed, index)   # ATC-FULL: one shared graph
        a = svc.submit(kq("A", keywords=STREAMY, k=12))
        b = svc.submit(kq("B", arrival=0.1), deadline=2.15)
        consumed = list(a.results())
        assert a.done and len(consumed) == 12
        # B shared A's graph, which really executed past 2.15 during
        # the pumping: B expired there and then.
        assert b.status is QueryStatus.EXPIRED
        assert b.completed_at == 2.15

    def test_pump_only_consumption_enforces_follower_deadline(self, fed,
                                                              index):
        """A consumer that only ever pumps results() (never step())
        must still see a coalesced follower's personal deadline fire:
        pumping advances the service clock and sweeps."""
        svc = make_service(fed, index)
        leader = svc.submit(kq("L", keywords=STREAMY, k=12))
        svc.step(2.05)   # dispatched, mid-emission
        follower = svc.submit(kq("F", keywords=STREAMY, k=12,
                                 arrival=2.06), deadline=2.08)
        assert follower.via == "coalesced"
        consumed = list(follower.results())
        assert follower.status is QueryStatus.EXPIRED
        assert follower.completed_at >= 2.08   # observation instant
        assert len(consumed) < 12
        svc.drain()
        assert leader.done and len(leader.answers) == 12

    def test_expired_query_keeps_engine_deadline_ledger_clean(self, fed,
                                                              index):
        svc = make_service(fed, index)
        svc.submit(kq("Q1"), deadline=0.05)
        svc.drain()
        assert svc.workers[0].engine._deadlines == {}


class TestDeadlineAtArrival:
    """The degenerate deadline == arrival: the query is already overdue
    the instant it is admitted, so it must expire with *zero* work --
    no batching past its instant, no execution, no answers -- and a
    terminal trace span, on both clock families."""

    def test_expires_with_zero_work_virtual(self, fed, index):
        from repro.obs.trace import TERMINAL, Tracer
        tracer = Tracer()
        svc = QService(fed, config(), index=index, tracer=tracer)
        handle = svc.submit(kq("Q1", arrival=1.0), deadline=1.0)
        report = svc.drain()
        assert handle.status is QueryStatus.EXPIRED
        assert handle.answers == []
        assert handle.completed_at == 1.0    # its own instant, exactly
        assert report.telemetry.expired == 1
        # Zero work: no plan graph ever ran, so the engine's
        # furthest-ahead graph clock never left its initial mark.
        assert svc.workers[0].engine.virtual_now() == 0.0
        trace = handle.trace()
        assert trace is not None and trace.finished
        assert trace.disposition == "expired"
        terminal = [s for s in trace.spans() if s.name == TERMINAL]
        assert len(terminal) == 1 and terminal[0].v_start == 1.0

    def test_expires_with_zero_work_wall(self, fed, index):
        from repro.common.clock import WallClock
        from repro.obs.trace import TERMINAL, Tracer
        tracer = Tracer()
        # On a wall clock the arrival instant is only known at submit
        # time, so the edge is pinned through the config default:
        # deadline = arrival + 0.0 == arrival, whatever `now` was.
        svc = QService(fed, config(), index=index, tracer=tracer,
                       service=ServiceConfig(default_deadline=0.0),
                       clock=WallClock())
        handle = svc.submit(kq("Q1"))
        assert handle.deadline == handle.arrival
        report = svc.drain()
        assert handle.status is QueryStatus.EXPIRED
        assert handle.answers == []
        assert handle.completed_at == handle.arrival
        assert report.telemetry.expired == 1
        trace = handle.trace()
        assert trace is not None and trace.disposition == "expired"
        assert any(s.name == TERMINAL for s in trace.spans())

    def test_sharded_fleet_same_edge(self, fed, index):
        fleet = ShardedQService(fed, config(), n_shards=2, index=index)
        handle = fleet.submit(kq("Q1", arrival=2.0), deadline=2.0)
        fleet.drain()
        assert handle.status is QueryStatus.EXPIRED
        assert handle.answers == []
        assert handle.completed_at == 2.0


class TestTicketEdgeCases:
    """Satellite hardening: ``latency``/``done`` boundary semantics."""

    def test_rejected_ticket(self, fed, index):
        svc = make_service(
            fed, index, service=ServiceConfig(max_in_flight=1,
                                              coalesce=False))
        svc.submit(kq("Q1"))
        svc.step(2.1)
        rejected = svc.submit(kq("Q2", keywords=("membrane", "gene"),
                                 arrival=2.2))
        assert rejected.status is QueryStatus.REJECTED
        assert rejected.terminal and not rejected.done
        assert rejected.latency is None
        assert rejected.completed_at is None
        assert rejected.answers_so_far() == []
        assert list(rejected.results()) == []

    def test_deferred_then_served_latency_counts_park_time(self, fed, index):
        svc = make_service(
            fed, index,
            service=ServiceConfig(max_in_flight=1, coalesce=False,
                                  admission_policy="defer"))
        h1 = svc.submit(kq("Q1"))
        svc.step(2.1)
        h2 = svc.submit(kq("Q2", keywords=("membrane", "gene"), arrival=2.2))
        assert h2.status is QueryStatus.DEFERRED
        assert h2.latency is None   # unresolved: no latency yet
        svc.drain()
        assert h2.done
        # Latency is measured from the *original* arrival: the parked
        # wait is part of what the user experienced.
        assert h2.latency == pytest.approx(h2.completed_at - 2.2)
        assert h2.latency > 0.0

    def test_cache_hit_ticket_zero_latency(self, fed, index):
        svc = make_service(fed, index)
        h1 = svc.submit(kq("Q1"))
        svc.drain()
        at = svc.workers[0].engine.virtual_now() + 1.0
        h2 = svc.submit(kq("Q2", arrival=at))
        assert h2.via == "cache"
        assert h2.done and h2.latency == 0.0
        assert h2.completed_at == at

    def test_empty_result_ticket(self, fed, index):
        svc = make_service(fed, index)
        handle = svc.submit(kq("Q1", keywords=("zzzznothing",)))
        assert handle.done and handle.via == "empty"
        assert handle.latency == 0.0
        assert handle.answers == []

    def test_cancelled_ticket_latency_is_none(self, fed, index):
        svc = make_service(fed, index)
        handle = svc.submit(kq("Q1"))
        handle.cancel()
        assert handle.latency is None
        assert handle.completed_at is not None   # termination instant


class TestAbandonmentModel:
    def test_schedule_is_seeded_and_bounded(self, fed, index):
        load = generate_load(fed, LoadConfig(n_queries=40, seed=3,
                                             abandon_prob=0.5,
                                             patience_mean=1.0),
                             index=index)
        cfg = LoadConfig(n_queries=40, seed=3, abandon_prob=0.5,
                         patience_mean=1.0)
        s1 = generate_abandonments(load, cfg)
        s2 = generate_abandonments(load, cfg)
        assert s1 == s2
        assert 0 < len(s1) < len(load)
        by_id = {q.kq_id: q for q in load}
        for kq_id, at in s1.items():
            assert at > by_id[kq_id].arrival

    def test_zero_probability_schedules_nothing(self, fed, index):
        cfg = LoadConfig(n_queries=10, abandon_prob=0.0)
        load = generate_load(fed, cfg, index=index)
        assert generate_abandonments(load, cfg) == {}

    def test_invalid_abandonment_config(self):
        with pytest.raises(ValueError):
            LoadConfig(abandon_prob=1.5)
        with pytest.raises(ValueError):
            LoadConfig(patience_mean=0.0)

    def test_run_applies_cancellations(self, fed, index):
        cfg = LoadConfig(n_queries=16, rate_qps=4.0, k=K, n_templates=6,
                         vocabulary_size=12, seed=5, abandon_prob=0.4,
                         patience_mean=0.3)
        load = generate_load(fed, cfg, index=index)
        schedule = generate_abandonments(load, cfg)
        assert schedule
        svc = make_service(fed, index)
        report = svc.run(load, cancellations=schedule)
        tel = report.telemetry
        assert tel.cancelled > 0
        assert tel.completed + tel.rejected + tel.cancelled + tel.expired \
            == len(load)
        for handle in report.tickets:
            assert handle.terminal


class TestTelemetryCounters:
    def test_counters_render_and_merge(self):
        t1 = Telemetry()
        t1.record_arrival(0.0)
        t1.record_cancellation(1.0, ttfa=0.5)
        t2 = Telemetry()
        t2.record_arrival(0.5)
        t2.record_expiry(2.0)
        merged = Telemetry.merged([t1, t2])
        assert merged.cancelled == 1 and merged.expired == 1
        assert merged.ttfas == [0.5]
        assert "1 cancelled" in merged.render()
        assert "1 expired" in merged.render()
        summary = merged.summary()
        assert summary["cancelled"] == 1.0 and summary["expired"] == 1.0
        assert summary["ttfa_p50"] == 0.5

    def test_ttfa_undefined_without_samples(self):
        tel = Telemetry()
        assert tel.ttfa_percentiles() == {"ttfa_p50": None,
                                          "ttfa_p95": None}
        assert not math.isnan(float("inf"))  # sanity: no NaN creeps in

    def test_negative_ttfa_rejected(self):
        tel = Telemetry()
        with pytest.raises(ValueError):
            tel.record_completion(1.0, 0.5, ttfa=-0.1)
