"""The Q System engine: the full pipeline of Figure 3.

``QSystemEngine`` is the library's main entry point.  It wires
together:

  keyword query -> candidate networks -> query batcher -> multi-query
  optimizer (reuse-aware) -> factorized plan -> QS manager graft ->
  ATC execution -> ranked answers,

under one of the four sharing configurations (ATC-CQ / ATC-UQ /
ATC-FULL / ATC-CL).  All timing is virtual: stream reads and remote
probes advance each plan graph's clock by simulated network delays,
while measured optimizer wall time is added on top (the paper's
timings "included query optimization as a component").

Every query ends in exactly one frozen :class:`Terminal` record -- done,
cancelled or expired -- made at its terminal instant.
:meth:`QSystemEngine.take_terminals` hands the records over and, in the
same call, releases each query's rank-merge, graph assignment, CQ plans
and deadline; operator state stays with the plan graph.  Every driver
consumes that one stream: :meth:`QSystemEngine.run` turns it into
``EngineReport.answers`` and the serving layer resolves its handles
from it, so no driver leaves finished queries behind.

Typical use::

    engine = QSystemEngine(federation, ExecutionConfig(mode=SharingMode.ATC_FULL))
    engine.submit(KeywordQuery("KQ1", ("protein", "plasma membrane"), k=50))
    report = engine.run()
    for answer in report.answers["KQ1"]:
        print(answer)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.atc.batcher import Batch, QueryBatcher
from repro.atc.controller import ATCController
from repro.atc.state_manager import QueryStateManager, Terminal
from repro.common.config import ExecutionConfig, SharingMode
from repro.data.database import Federation
from repro.data.inverted import InvertedIndex
from repro.keyword.candidates import CandidateNetworkGenerator
from repro.keyword.queries import KeywordQuery, RankedAnswer, UserQuery
from repro.obs.records import Metrics, OptimizerRecord, UQRecord
from repro.obs.trace import NO_TRACER
from repro.optimizer.cost import CostModel
from repro.optimizer.repository import PlanRepository
from repro.plan.graph import PlanGraph


@dataclass
class EngineReport:
    """Everything an experiment needs from one engine run."""

    config: ExecutionConfig
    answers: dict[str, list[RankedAnswer]] = field(default_factory=dict)
    metrics: Metrics = field(default_factory=Metrics)
    graph_summaries: dict[str, dict] = field(default_factory=dict)

    def latency(self, uq_id: str) -> float | None:
        record = self.metrics.uq_records.get(uq_id)
        return record.latency if record else None

    def latencies(self) -> dict[str, float]:
        """Arrival-to-completion per user query (includes batch wait)."""
        return {
            uq_id: record.latency
            for uq_id, record in sorted(self.metrics.uq_records.items())
            if record.latency is not None
        }

    def processing_times(self) -> dict[str, float]:
        """Dispatch-to-completion per user query: optimization plus
        execution -- the paper's "running time to return the top-k
        results" (its timings "included query optimization")."""
        return {
            uq_id: record.processing_time
            for uq_id, record in sorted(self.metrics.uq_records.items())
            if record.processing_time is not None
        }

    def cqs_executed(self) -> dict[str, int]:
        return {
            uq_id: record.cqs_executed
            for uq_id, record in sorted(self.metrics.uq_records.items())
        }


class QSystemEngine:
    """Middleware facade: submit keyword queries, run, collect answers."""

    def __init__(self, federation: Federation, config: ExecutionConfig,
                 generator: CandidateNetworkGenerator | None = None,
                 index: InvertedIndex | None = None,
                 repository: PlanRepository | None = None,
                 tracer=None) -> None:
        self.federation = federation
        self.config = config
        #: Per-query trace recorder (:mod:`repro.obs.trace`).  Record
        #: sites call it unconditionally; the no-op default is the off
        #: switch.  Tracing only reads clocks that already advanced, so
        #: answers are identical either way.
        self.tracer = tracer if tracer is not None else NO_TRACER
        self.index = index if index is not None else InvertedIndex(federation)
        #: The plan repository may be an externally owned, *shared*
        #: tier: the sharded service hands every shard worker the same
        #: instance, because expansions derived from the same federation
        #: are shard-independent.
        self.repository = repository if repository is not None \
            else PlanRepository(federation, config)
        self.generator = generator or CandidateNetworkGenerator(
            federation, index=self.index, max_cqs=config.max_cqs_per_uq,
            repository=self.repository,
        )
        self.batcher = QueryBatcher(batch_size=config.batch_size,
                                    window=config.batch_window)
        self.qs = QueryStateManager(federation, config)
        self.cost_model = CostModel(federation, config)
        #: Graphs with (potentially) incomplete rank-merges.  step()
        #: and drain() only drive these, so per-arrival work under a
        #: sustained stream stays proportional to the *live* graphs,
        #: not to every graph ever created (ATC-CL makes one per query
        #: cluster).
        self._active_graphs: set[str] = set()
        #: Per-query absolute virtual deadlines.  step()/drain()
        #: segment execution at these instants and retire overdue
        #: queries exactly there, so an expired query's answers-so-far
        #: are what had been emitted *by the deadline*.
        self._deadlines: dict[str, float] = {}
        #: High-water mark over all plan-graph clocks, maintained as
        #: graphs are driven so ``virtual_now`` does not rescan them.
        self._clock_high = 0.0

    # -- intake ---------------------------------------------------------------

    def submit(self, kq: KeywordQuery) -> UserQuery:
        """Expand a keyword query into a user query and enqueue it."""
        uq = self.generator.generate(kq)
        self.batcher.submit(uq)
        return uq

    def submit_user_query(self, uq: UserQuery,
                          deadline: float | None = None) -> None:
        """Enqueue a pre-expanded user query (workload replay).

        ``deadline`` is an absolute virtual instant; if the query has
        not completed by then, :meth:`step`/:meth:`drain` retire it as
        expired (keeping its answers-so-far).
        """
        self.batcher.submit(uq)
        if deadline is not None:
            self._deadlines[uq.uq_id] = deadline

    def set_deadline(self, uq_id: str, deadline: float | None) -> None:
        """Replace (or, with ``None``, lift) one query's deadline.  The
        serving layer uses this when queries coalesce: the shared
        execution must live as long as its longest-lived rider."""
        if deadline is None:
            self._deadlines.pop(uq_id, None)
        else:
            self._deadlines[uq_id] = deadline

    def deadline_of(self, uq_id: str) -> float | None:
        """The deadline this engine is enforcing for ``uq_id`` (None
        when unbounded)."""
        return self._deadlines.get(uq_id)

    # -- execution --------------------------------------------------------------

    def run(self) -> EngineReport:
        """Process every submitted query to completion: :meth:`drain`,
        then :meth:`take_terminals`.

        Operation is continuous (Section 2: "we do not discard the
        query plan graph and its state -- rather, we take subsequent
        queries and attempt to graft them onto the existing graph"):
        each batch's queries are grafted onto their plan graphs at
        dispatch time, *while earlier queries may still be executing*;
        after the last batch, every graph drains to completion.

        The report's ``answers`` map each query handed over by this
        call -- every terminal record not taken before -- to its
        answers, and those queries are released.  Plan graphs, their
        state, the metrics and the ``UQRecord``s persist, so a second
        call grafts whatever was submitted since and reports cumulative
        metrics alongside only the new queries' answers.
        """
        self.drain()
        report = self.report()
        report.answers = {t.uq_id: t.answers for t in self.take_terminals()}
        return report

    def step(self, until: float) -> None:
        """Advance the engine's virtual time to ``until``.

        This is the online half of the execution API: every batch the
        batcher has *closed* by ``until`` (full, or collection window
        expired) is optimized and grafted onto its -- possibly still
        running -- plan graph, then each graph executes up to
        ``until``.  Queries still collecting in an open batch stay
        queued for a later step, so new submissions interleave freely
        with execution.  The state budget is enforced after every
        step, which is what keeps memory bounded under sustained load
        rather than only at end-of-run.

        Deadline enforcement: execution is segmented at every pending
        deadline that falls inside this step, and queries still
        incomplete when their instant is reached are retired as
        expired (a query that completes just before its deadline is a
        normal completion).  With no deadlines pending the step is a
        single segment, bit-identical to the v1 behaviour.
        """
        for boundary in self._boundaries(until):
            self._step_to(boundary)
            self._expire_due(boundary)

    def _boundaries(self, until: float) -> list[float]:
        """The deadline instants inside ``(-inf, until)``, ascending,
        plus ``until`` itself -- the step's execution segments."""
        due = {d for d in self._deadlines.values() if d < until}
        return sorted(due) + [until]

    def _drive_graph(self, graph: PlanGraph, deadline: float | None,
                     stop=None) -> None:
        """Run one graph's ATC (to ``deadline``, or to completion with
        ``None``), recording the drive as one ``execution`` trace slice
        per incomplete rank-merge when tracing is on.  A rider that
        completes or retires mid-slice has its slice clipped at its own
        completion instant, so execution spans never outlive the
        query's terminal."""
        tracer = self.tracer
        if not tracer.enabled:
            ATCController(graph, self.qs).run_until(deadline, stop=stop)
            return
        riders = [rm.uq.uq_id for rm in graph.incomplete_rank_merges()]
        v0 = graph.clock.now
        w0 = tracer.wall()
        ATCController(graph, self.qs).run_until(deadline, stop=stop)
        v1 = graph.clock.now
        if v1 <= v0 or not riders:
            return
        w1 = tracer.wall()
        for uq_id in riders:
            end = v1
            record = graph.metrics.uq_records.get(uq_id)
            if record is not None and record.completed is not None:
                end = min(v1, max(record.completed, v0))
            tracer.span_uq(uq_id, "execution", v0, end, wall=(w0, w1),
                           graph=graph.graph_id)

    def _settle(self, graph: PlanGraph, budget: bool = True) -> None:
        """The epilogue of driving ``graph``: enforce the state budget
        on it, then raise the clock high-water mark.  Batch dispatch
        passes ``budget=False``: the budget waits for the graph's next
        drive, which runs the freshly grafted queries."""
        if budget:
            self.qs.enforce_budget(graph)
        if graph.clock.now > self._clock_high:
            self._clock_high = graph.clock.now

    def _step_to(self, until: float) -> None:
        """One execution segment of :meth:`step`."""
        for batch in self.batcher.pop_ready(until):
            self._run_batch(batch)
        for graph_id in sorted(self._active_graphs):
            graph = self.qs.graphs[graph_id]
            self._drive_graph(graph, until)
            self._settle(graph)
            if not graph.incomplete_rank_merges():
                # Nothing left to drive; a later graft re-activates it.
                self._active_graphs.discard(graph_id)

    def _expire_due(self, now: float) -> None:
        """Retire every query whose deadline has passed and whose
        rank-merge is still incomplete; completed queries merely shed
        their (moot) deadline entry."""
        due = [uq_id for uq_id, d in self._deadlines.items() if d <= now]
        for uq_id in sorted(due):
            deadline = self._deadlines.pop(uq_id)
            self._retire(uq_id, "expired", at=deadline)

    def _retire(self, uq_id: str, how: str, at: float) -> bool:
        """Common cancel/expire path: withdraw a batched query, or
        terminate its rank-merge and release its share of the plan
        graph through the state manager (operator state still feeding
        other queries survives -- the unlink stops at live splits).
        Either way the query's terminal record goes to the outbox."""
        if self.batcher.remove(uq_id) is not None:
            self.qs.outbox.append(Terminal(uq_id, how, at, [], None))
            return True
        graph_id = self.qs.uq_graphs.get(uq_id)
        if graph_id is None:
            return False
        graph = self.qs.graphs[graph_id]
        rm = graph.rank_merges.get(uq_id)
        if rm is None or rm.complete:
            return False
        self.qs.retire(graph, rm, how, at=at)
        return True

    def retire_query(self, uq_id: str, how: str,
                     at: float | None = None) -> bool:
        """Abandon one user query as ``"cancelled"`` or ``"expired"``:
        withdraw it from the batcher, or retire its rank-merge and
        unlink its plan-graph taps (shared operator state survives for
        the queries still using it).  ``at`` stamps the retirement
        instant (defaults to the engine's virtual now).  Returns False
        if the query is unknown or already complete."""
        self._deadlines.pop(uq_id, None)
        return self._retire(uq_id, how,
                            at=self.virtual_now() if at is None else at)

    def take_terminals(self) -> list[Terminal]:
        """Hand over the terminal records made since the last call, in
        the order their queries reached them, and release each query:
        its rank-merge, graph assignment, CQ plans and deadline go.
        Operator state and the plan graph stay, and so does its
        ``UQRecord``.

        Release waits for the hand-over, never the terminal instant:
        :meth:`drain` reads a deadline without a graph assignment as a
        query still in the batcher, and :meth:`drive_query` segments at
        the deadlines of queries on the driven graph, so a finished
        query's entries must outlive the engine call that finished it
        for the schedule not to depend on who drives."""
        terminals = self.qs.outbox
        self.qs.outbox = []
        for terminal in terminals:
            self._deadlines.pop(terminal.uq_id, None)
            self.qs.release(terminal.uq_id)
        return terminals

    def drive_query(self, uq_id: str) -> bool:
        """Run ``uq_id``'s plan graph -- on the normal round-robin
        schedule -- until that query emits at least one new answer,
        completes, or hits its deadline.  The streaming client API's
        pull: returns whether the query's observable state changed.
        Every pause restarts the round-robin (see :meth:`ATCController.
        run_until`), so the visit order, the work and the choice among
        tied answers follow the pause points; the score vectors are the
        exact top-k under any cadence.

        Deadline enforcement is per *graph*, exactly as in
        :meth:`step`: driving is segmented at every deadline of a
        query sharing the driven graph (its execution genuinely
        reaches those instants), while queries on other graphs -- not
        executed here -- keep their deadlines for the next
        step/drain to fire.
        """
        graph_id = self.qs.uq_graphs.get(uq_id)
        if graph_id is None:
            return False
        graph = self.qs.graphs[graph_id]
        rm = graph.rank_merges.get(uq_id)
        if rm is None or rm.complete:
            return False
        before = len(rm.emitted)

        def stop() -> bool:
            return rm.complete or len(rm.emitted) > before

        while True:
            # Streaming *is* the passage of virtual time: batches whose
            # collection window has closed by the driven clock dispatch
            # now, exactly as a step() to this instant would -- without
            # this, pumping one handle would starve co-pending queued
            # queries until drain and inflate their latencies.
            for batch in self.batcher.pop_ready(graph.clock.now):
                self._run_batch(batch)
            boundary = min(
                (d for u, d in self._deadlines.items()
                 if self.qs.uq_graphs.get(u) == graph_id), default=None)
            self._drive_graph(graph, boundary, stop=stop)
            if boundary is None or graph.clock.now < boundary:
                break
            # The graph executed up to this instant: every co-resident
            # query due by it expires now (each pass pops at least the
            # boundary's own entry, so the loop terminates).
            due = [u for u, d in self._deadlines.items()
                   if d <= boundary and self.qs.uq_graphs.get(u) == graph_id]
            for u in sorted(due):
                deadline = self._deadlines.pop(u)
                self._retire(u, "expired", at=deadline)
            if stop():
                break
        # Batches whose window closed *inside* the last segment
        # dispatch before the pause, so a pause-resume cadence stays
        # equivalent to stepping straight to this clock.
        for batch in self.batcher.pop_ready(graph.clock.now):
            self._run_batch(batch)
        self._settle(graph)
        if not graph.incomplete_rank_merges():
            self._active_graphs.discard(graph_id)
        return rm.complete or len(rm.emitted) > before

    def drain(self) -> None:
        """Dispatch everything still pending and run every *active*
        graph to completion -- segmented at pending deadlines, which
        fire exactly as in :meth:`step`.

        Settled graphs (no incomplete rank-merges) are left alone: they
        cannot make progress, and re-driving every graph ever created
        would make each drain O(history) under ATC-CL's one graph per
        query cluster.  Report construction lives in :meth:`report` --
        callers that drain in a loop (the service does, to flush
        deferred queries) request the report once at the end.
        """
        # Queries still collecting in the batcher may carry deadlines
        # that fall inside their open collection window.  Force-closing
        # their batch first would spend optimization and execution work
        # on queries that, in continuous time, expire before the batch
        # ever dispatches -- the degenerate case being a deadline equal
        # to the arrival instant, which must incur zero work.  Replay
        # continuous time up to the latest such deadline instead:
        # windows close on schedule and due queries expire at their
        # exact instants, exactly as a long step() would have it.
        batched = [d for uq_id, d in self._deadlines.items()
                   if self.qs.uq_graphs.get(uq_id) is None]
        if batched:
            self.step(max(batched))
        for batch in self.batcher.drain():
            self._run_batch(batch)
        if self._deadlines:
            self.step(max(self._deadlines.values()))
        for graph_id in sorted(self._active_graphs):
            graph = self.qs.graphs[graph_id]
            self._drive_graph(graph, None)
            self._settle(graph)
        self._active_graphs.clear()

    def report(self) -> EngineReport:
        """The cumulative metrics of every plan graph plus one summary
        per graph, built afresh on each call.

        Usable at any point of a stepped execution; user queries still
        in flight appear in the metrics with ``completed is None``.
        Answers travel in terminal records (:meth:`take_terminals`), so
        ``answers`` is left empty here; :meth:`run` fills it.
        """
        report = EngineReport(config=self.config,
                              metrics=self.qs.merged_metrics())
        for graph_id, graph in self.qs.graphs.items():
            report.graph_summaries[graph_id] = {
                "clock": graph.clock.now,
                "units": len(graph.units),
                # Linked m-joins only: an unlinked one leaves the graph.
                "nodes": len(graph.nodes),
                "splits": graph.split_count(),
                "state_tuples": graph.state_size(),
                "epoch": graph.epoch,
            }
        return report

    def in_flight(self) -> list[str]:
        """IDs of user queries dispatched but not yet completed."""
        return [
            uq_id
            for graph in self.qs.graphs.values()
            for uq_id, rm in graph.rank_merges.items()
            if not rm.complete
        ]

    def virtual_now(self) -> float:
        """The furthest-ahead plan-graph clock (0.0 before any work).

        Maintained as a high-water mark while graphs are driven --
        settled clocks never move, so rescanning every graph per call
        (ATC-CL keeps one per query cluster) would be pure overhead.
        """
        return self._clock_high

    def _run_batch(self, batch: Batch) -> None:
        """Graft one batch onto its (possibly still running) graphs.

        Each target graph first executes up to the batch's dispatch
        time -- queries already in flight keep progressing -- then the
        new queries are optimized and grafted mid-execution, exactly
        the dynamic behaviour of Section 6.  All queries on one graph
        contend for its single ATC; ATC-CL's multiple graphs proceed on
        parallel clocks.
        """
        groups = self._optimization_groups(batch)
        for graph_id, uqs in groups:
            graph = self.qs.get_or_create_graph(graph_id)
            self._active_graphs.add(graph_id)
            self._drive_graph(graph, batch.dispatch_time)
            graph.clock.advance_to(batch.dispatch_time)
            dispatched = graph.clock.now
            wall_before = self.tracer.wall()
            record = self._optimize_and_graft(graph, uqs)
            for uq in uqs:
                graph.metrics.record_uq(UQRecord(
                    uq_id=uq.uq_id,
                    arrival=uq.arrival,
                    dispatched=dispatched,
                    started=graph.clock.now,
                ))
            self._trace_dispatch(graph, batch, uqs, dispatched, record,
                                 wall_before)
            self._settle(graph, budget=False)

    def _optimization_groups(self, batch: Batch
                             ) -> list[tuple[str, list[UserQuery]]]:
        """Partition a batch into per-graph optimization groups.

        ATC-CQ / ATC-UQ optimize each user query alone (no multi-query
        optimization); ATC-FULL optimizes the whole batch together;
        ATC-CL optimizes per cluster.  Several groups may target the
        same graph -- their optimizer invocations serialize on that
        graph's clock, their execution interleaves.
        """
        mode = self.config.mode
        if mode in (SharingMode.ATC_CQ, SharingMode.ATC_UQ):
            return [(self.qs.graph_id_for(uq), [uq]) for uq in batch.uqs]
        groups: dict[str, list[UserQuery]] = {}
        for uq in batch.uqs:
            groups.setdefault(self.qs.graph_id_for(uq), []).append(uq)
        return sorted(groups.items())

    def _optimize_and_graft(self, graph: PlanGraph,
                            uqs: list[UserQuery]) -> OptimizerRecord:
        """Optimize one group through the plan repository and graft the
        resulting plan; returns the invocation's record.  The measured
        optimizer wall time is charged to the graph's virtual clock
        (scaled by ``optimizer_time_scale``).
        """
        scope = graph.graph_id if self.config.shares_across_uqs \
            else uqs[0].uq_id
        oracle = self.qs.oracle_for(graph) if self.config.reuses_state \
            else None
        outcome = self.repository.optimize(
            uqs, scope=scope, oracle=oracle, cost_model=self.cost_model)
        graph.clock.advance(
            outcome.record.elapsed_wall * self.config.optimizer_time_scale)
        graph.metrics.optimizer_records.append(outcome.record)
        self.qs.register_plan(graph, outcome.plan, uqs)
        return outcome.record

    def _trace_dispatch(self, graph: PlanGraph, batch: Batch,
                        uqs: list[UserQuery], dispatched: float, record,
                        wall_before: float) -> None:
        """Record one dispatch's spans for every query in the group:
        the ``batch_window`` wait, the ``optimize`` span, and its
        ``factorization`` child."""
        tracer = self.tracer
        wall_after = tracer.wall()
        for uq in uqs:
            tracer.span_uq(uq.uq_id, "batch_window", uq.arrival, dispatched,
                           batch=batch.index, batch_size=len(batch.uqs))
            opt = tracer.span_uq(
                uq.uq_id, "optimize", dispatched, graph.clock.now,
                wall=(wall_before, wall_after), group_size=len(uqs),
                candidates=record.candidate_count,
                plans_explored=record.plans_explored,
                optimizer_wall_s=round(record.elapsed_wall, 6))
            tracer.child(opt, "factorization", dispatched, graph.clock.now)
