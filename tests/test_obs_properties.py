"""Property-based tests (hypothesis) for the trace invariants.

The tracer documents structural guarantees (``repro.obs.trace``):
every query's spans form a well-nested tree, a finished root carries
exactly one ``terminal`` child whose disposition matches the handle's
terminal status, and sibling ``execution`` slices are ordered and
non-overlapping.  Those guarantees hold *by construction* (clamping in
``span``/``child``/``finish_query``) -- these tests drive the live
service through arbitrary interleavings of submit / cancel / step /
drain, with coalescing, deferral, and deadline expiry all reachable,
and check the recorded trees rather than the clamping code -- and,
over the same sessions, that every terminal path released its query
from the engine's per-query tables.

A tiny keyword pool plus a small in-flight budget makes the
interesting paths common: repeats coalesce (and promote when a leader
is cancelled), the budget defers arrivals, and short deadlines expire
parked or running queries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import ExecutionConfig, SharingMode
from repro.data.figure1 import figure1_federation
from repro.data.inverted import InvertedIndex
from repro.keyword.queries import KeywordQuery
from repro.obs.export import validate_trace_lines
from repro.obs.trace import Tracer
from repro.service import QService, ServiceConfig

#: Tiny universe so identical queries (coalescing, cache hits) and
#: overlapping ones (shared executions) happen constantly.
WORDS = ("protein", "plasma", "membrane", "gene")

FEDERATION = figure1_federation()
INDEX = InvertedIndex(FEDERATION)

submits = st.tuples(
    st.just("submit"),
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=2, unique=True),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
cancels = st.tuples(st.just("cancel"), st.integers(min_value=0),
                    st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
steps = st.tuples(st.just("step"), st.just(None),
                  st.floats(min_value=0.0, max_value=5.0, allow_nan=False))

ops = st.lists(st.one_of(submits, cancels, steps), min_size=1, max_size=25)

deadlines = st.one_of(st.none(),
                      st.floats(min_value=0.5, max_value=6.0,
                                allow_nan=False))


def drive(ops, deadline, tracer):
    """One arbitrary client session against a fresh traced service."""
    service = QService(
        FEDERATION,
        ExecutionConfig(mode=SharingMode.ATC_FULL, k=3, batch_window=1.0,
                        optimizer_time_scale=0.0, seed=11),
        ServiceConfig(max_in_flight=2, admission_policy="defer",
                      cache_ttl=3.0, default_deadline=deadline),
        index=INDEX, tracer=tracer)
    handles = []
    now = 0.0
    for i, (kind, arg, gap) in enumerate(ops):
        now += gap
        if kind == "submit":
            handles.append(service.submit(
                KeywordQuery(f"KQ{i}", tuple(arg), k=3, arrival=now)))
        elif kind == "cancel" and handles:
            service.step(now)
            handles[arg % len(handles)].cancel()
        elif kind == "step":
            service.step(now)
    report = service.drain()
    return service, handles, report


def assert_well_nested(span):
    assert span.v_end is not None
    assert span.v_end >= span.v_start
    for child in span.children:
        assert child.v_start >= span.v_start - 1e-9
        assert child.v_end is not None
        assert child.v_end <= span.v_end + 1e-9
        assert_well_nested(child)


class TestTraceProperties:
    @given(ops=ops, deadline=deadlines)
    @settings(max_examples=50, deadline=None)
    def test_every_trace_is_structurally_sound(self, ops, deadline):
        tracer = Tracer()
        service, handles, report = drive(ops, deadline, tracer)

        # Every submitted query ended, and its trace agrees.
        dispositions = []
        for handle in handles:
            assert handle.terminal
            trace = handle.trace()
            assert trace is not None, handle.kq_id
            assert trace.finished
            assert trace.disposition == str(handle.status)
            dispositions.append(trace.disposition)

            # Exactly one terminal marker, carried by the root.
            terminals = [s for s in trace.root.children
                         if s.name == "terminal"]
            assert len(terminals) == 1
            assert terminals[0].attrs["disposition"] == trace.disposition

            # Well-nested intervals along every path.
            assert_well_nested(trace.root)

            # Execution slices are ordered and non-overlapping.
            slices = [s for s in trace.root.children
                      if s.name == "execution"]
            for earlier, later in zip(slices, slices[1:]):
                assert later.v_start >= earlier.v_end - 1e-9

        # The trace dispositions reconcile with the telemetry ledger:
        # done + cancelled + expired + rejected == submitted.
        tel = report.telemetry
        assert dispositions.count("done") == tel.completed
        assert dispositions.count("cancelled") == tel.cancelled
        assert dispositions.count("expired") == tel.expired
        assert dispositions.count("rejected") == tel.rejected
        assert len(dispositions) == tel.submitted

        # The JSONL dump of the same trees passes the schema check CI
        # runs over exported artifacts.
        assert validate_trace_lines(tracer.jsonl_lines()) == []

        # Every terminal path -- harvest, coalescing and promotion,
        # deferral, expiry, cancellation -- released its query: no
        # engine table still holds one.
        engine = service.workers[0].engine
        assert engine.qs.uq_graphs == {}
        assert all(not graph.rank_merges
                   for graph in engine.qs.graphs.values())
        assert all(not plans for plans in engine.qs.cq_plans.values())
        assert engine._deadlines == {}
        assert engine.qs.outbox == []

    @given(ops=ops, deadline=deadlines)
    @settings(max_examples=20, deadline=None)
    def test_tracing_never_perturbs_outcomes(self, ops, deadline):
        """Answers, statuses, and terminal instants are byte-identical
        with tracing on or off -- the tracer only reads clocks."""
        def observable(tracer):
            _service, handles, _report = drive(ops, deadline, tracer)
            return [(h.kq_id, str(h.status), h.via, h.completed_at,
                     h.answers) for h in handles]

        assert observable(None) == observable(Tracer())
