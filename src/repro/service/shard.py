"""One shard: an engine and the serving state around it.

The serving layer has two roles.  The *front door*
(:class:`~repro.service.sharding.ShardedQService`) faces clients and
owns the answer cache, the handle table, routing and the trace roots.
A :class:`Shard` is one engine behind it, run in-process by the front
door (sharing its clock, cache, plan repository and tracer) or inside
a worker process (:class:`~repro.service.workers.ProcessWorker`).  It
grafts the queries it is handed onto the live plan graph one at a time
along the virtual-time arrival stream, while earlier ones still run:

* an identical query already in flight here is *coalesced* onto the
  running one (only *complete* result sets reach the answer cache: a
  cancelled or expired query's partial top-k never serves a later
  twin);
* **admission control** (:mod:`repro.service.admission`) sheds or
  defers queries when the in-flight budget is exhausted; parked
  queries are retried on every step, and an empty shard always admits;
* cancellation releases the query's share of the plan graph through
  the state manager's refcounted unlink -- operator state other
  queries still ride survives.

Deadline semantics: a deadline on a query the engine executes fires at
its exact virtual instant (the engine segments execution there).  A
deadline on a *parked* query (deferred) or a *coalesced follower* is
observed at the shard's next step, and the expiry is stamped at that
observation instant (the missed deadline is kept in ``reason``); if
the shared execution has already completed by then, completion wins
and the full answer is served.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from repro.atc.engine import QSystemEngine
from repro.common.clock import Clock
from repro.common.config import ExecutionConfig
from repro.common.errors import QueryError
from repro.data.database import Federation
from repro.data.inverted import InvertedIndex
from repro.keyword.candidates import CandidateNetworkGenerator
from repro.keyword.queries import KeywordQuery, RankedAnswer, UserQuery
from repro.obs.instruments import MetricsRegistry
from repro.operators.rankmerge import RankMerge
from repro.optimizer.repository import PlanRepository
from repro.service.admission import AdmissionController
from repro.service.cache import CacheKey, ResultCache, normalize_key
from repro.service.handle import QueryHandle, QueryStatus
from repro.service.reports import ServiceReport
from repro.service.telemetry import Telemetry

__all__ = [
    "ENGINE_SERIES",
    "ServiceConfig",
    "Shard",
    "finish_done",
]


#: Every int/float :class:`~repro.obs.records.Metrics` counter -> the
#: series a shard publishes it as (labelled ``mode``) and its help.  A
#: process worker's report reads the engine totals back through the
#: same table, so a counter published is a counter reported.
ENGINE_SERIES: dict[str, tuple[str, str]] = {
    "stream_tuples_read": ("repro_engine_stream_tuples_read_total",
                           "tuples consumed from streaming sources"),
    "probes_performed": ("repro_engine_probes_total",
                         "remote random-access probes performed"),
    "probe_cache_hits": ("repro_engine_probe_cache_hits_total",
                         "probes served from the probe cache"),
    "join_probes": ("repro_engine_join_probes_total",
                    "in-memory join probes performed"),
    "tuples_inserted": ("repro_engine_tuples_inserted_total",
                        "tuples inserted into operator state"),
    "tuples_reused": ("repro_engine_tuples_reused_total",
                      "free replays of state another query paid for"),
    "recovery_queries": ("repro_engine_recovery_queries_total",
                         "recovery queries issued after state eviction"),
    "stream_read_time": ("repro_engine_stream_read_seconds_total",
                         "virtual seconds spent reading streams"),
    "random_access_time": ("repro_engine_random_access_seconds_total",
                           "virtual seconds spent on remote probes"),
    "join_time": ("repro_engine_join_seconds_total",
                  "virtual seconds spent joining in memory"),
    "tuples_output": ("repro_rankmerge_answers_emitted_total",
                      "ranked answers emitted across all rank-merges"),
    "evictions": ("repro_state_evictions_total",
                  "operator-state tuples evicted by the state manager"),
}


@dataclass(frozen=True)
class ServiceConfig:
    """Serving-layer tunables (the engine keeps its own
    :class:`~repro.common.config.ExecutionConfig`).

    ``default_deadline`` is a *relative* budget in virtual seconds: if
    set, every query that does not bring its own deadline gets
    ``arrival + default_deadline``.
    """

    cache_ttl: float = 300.0
    cache_capacity: int = 1024
    max_in_flight: int | None = 64
    admission_policy: str = "reject"
    coalesce: bool = True
    default_deadline: float | None = None


def _ttfa_of(handle: QueryHandle, answers: list,
             first_emitted: float | None) -> float | None:
    """Arrival-to-first-answer for one resolved handle (``None`` when
    it never received any answer)."""
    if not answers:
        return None
    if first_emitted is not None:
        return max(first_emitted - handle.arrival, 0.0)
    if handle.completed_at is not None:
        return max(handle.completed_at - handle.arrival, 0.0)
    return None


def finish_done(handle: QueryHandle, at: float, answers: list, source: str,
                telemetry: Telemetry, tracer, *,
                first_emitted: float | None = None,
                reason: str = "") -> None:
    """Resolve ``handle`` as ``DONE`` at ``at``: the one place a full
    answer is served, whatever produced it.  ``source`` says what did
    -- ``cache``, ``empty`` (no candidate network; ``reason`` says
    why), ``engine``, or ``coalesced`` (released with its leader) --
    and becomes the handle's ``via`` unless admission already set one
    (a promoted follower leads an engine execution but stays
    ``coalesced``)."""
    handle.status = QueryStatus.DONE
    handle.via = handle.via or source
    handle.answers = answers
    handle.completed_at = at
    if reason:
        handle.reason = reason
    telemetry.record_completion(
        at, max(at - handle.arrival, 0.0),
        ttfa=_ttfa_of(handle, answers, first_emitted))
    if answers and first_emitted is not None:
        tracer.event(handle.kq_id, "first_emission",
                     max(first_emitted, handle.arrival), answers_so_far=1)
    tracer.event(handle.kq_id, "harvest", at,
                 answers=len(answers), source=source)
    tracer.finish_query(handle.kq_id, at, "done", via=handle.via,
                        **({"reason": reason} if reason else {}))


class Shard:
    """One engine behind the front door, implementing
    :class:`~repro.service.workers.ShardWorker`.

    Every tier is handed in: the clock, answer cache, plan repository,
    candidate-network generator and tracer belong to whoever built the
    shard (the front door, or a worker process), and so do their
    metrics.  The shard publishes only what it owns: its telemetry,
    admission controller, batcher and engine."""

    #: The :class:`~repro.service.workers.ShardWorker` crash surface:
    #: an in-process shard cannot die independently of its front door.
    alive = True

    def __init__(self, federation: Federation, config: ExecutionConfig,
                 service: ServiceConfig, *,
                 generator: CandidateNetworkGenerator,
                 index: InvertedIndex,
                 cache: ResultCache,
                 repository: PlanRepository,
                 tracer,
                 clock: Clock) -> None:
        self.service_config = service
        #: Shared with the front door and every sibling shard, so the
        #: fleet observes a single "now" -- a shard must never write
        #: the clock backwards, which ``advance_to`` guarantees.
        self.clock = clock
        self.tracer = tracer
        self.registry = MetricsRegistry()
        self.engine = QSystemEngine(federation, config,
                                    generator=generator, index=index,
                                    repository=repository,
                                    tracer=self.tracer)
        #: Read on deferred retries, written on every engine completion.
        self.cache = cache
        self.admission = AdmissionController(
            max_in_flight=service.max_in_flight,
            policy=service.admission_policy,
        )
        self.telemetry = Telemetry(self.registry)
        self.registry.add_collector(self._publish_metrics)
        self._live: dict[str, QueryHandle] = {}       # uq_id -> handle
        self._inflight_keys: dict[CacheKey, str] = {}  # key -> leading uq_id
        self._followers: dict[CacheKey, list[QueryHandle]] = {}
        #: Parked queries awaiting budget: (kq, handle, pre-expanded uq
        #: if the caller supplied one -- retries must not re-expand).
        self._deferred: deque[tuple[KeywordQuery, QueryHandle,
                                    UserQuery | None]] = deque()
        #: Non-terminal handles carrying a deadline the *shard* must
        #: watch (followers and promoted leaders; the engine watches
        #: the execution's own effective deadline).
        self._timed: list[QueryHandle] = []

    # -- intake ---------------------------------------------------------------

    def submit(self, kq: KeywordQuery, arrival: float, *,
               deadline: float | None = None,
               uq: UserQuery | None = None) -> QueryHandle:
        """Admit one keyword query the front door routed here, at the
        instant it already stepped every shard to; returns its live
        :class:`QueryHandle`.

        The query is coalesced onto an identical in-flight query,
        admitted to the engine, deferred, or shed, in that order of
        preference (the front door has already missed its cache).
        ``deadline`` is absolute; ``uq`` passes a pre-expanded user
        query (the router expands once to read the relation
        footprint).
        """
        at = arrival
        # The front door stepped every live shard to ``arrival``; only
        # a worker process respawned since then lags it.
        self.clock.advance_to(at)
        handle = QueryHandle(kq_id=kq.kq_id, keywords=tuple(kq.keywords),
                             k=kq.k, arrival=at, deadline=deadline)
        self.telemetry.record_arrival(at)
        if self._coalesce(handle, at):
            return handle

        decision = self.admission.decide(in_flight=len(self._live))
        self.tracer.event(handle.kq_id, "admission", at,
                          action=decision.action,
                          **({"reason": decision.reason}
                             if decision.reason else {}))
        if decision.action == "reject":
            handle.status = QueryStatus.REJECTED
            handle.reason = decision.reason
            self.telemetry.record_rejection()
            self.tracer.finish_query(handle.kq_id, at, "rejected",
                                     reason=decision.reason)
            return handle
        if decision.action == "defer":
            handle.status = QueryStatus.DEFERRED
            handle.reason = decision.reason
            self._deferred.append((kq, handle, uq))
            self.telemetry.record_deferral()
            return handle
        self._start(kq, handle, at, uq=uq)
        return handle

    def _coalesce(self, handle: QueryHandle, at: float) -> bool:
        """Attach ``handle`` to an identical in-flight query, if any:
        on first admission, and again on every deferred retry (a
        parked query's twin may have started meanwhile)."""
        key = normalize_key(handle.keywords, handle.k)
        if not self.service_config.coalesce or key not in self._inflight_keys:
            return False
        leader_uq = self._inflight_keys[key]
        handle.status = QueryStatus.IN_FLIGHT
        handle.via = "coalesced"
        handle.uq_id = leader_uq
        self._followers.setdefault(key, []).append(handle)
        self.telemetry.record_coalesced()
        self.tracer.event(handle.kq_id, "coalesce_attach", at,
                          leader=leader_uq)
        self._watch(handle)
        # The shared execution must now outlive its longest rider.
        self.engine.set_deadline(
            leader_uq, self._effective_deadline(key, leader_uq))
        return True

    def _start(self, kq: KeywordQuery, handle: QueryHandle, at: float,
               uq: UserQuery | None = None) -> None:
        """Expand (unless pre-expanded) and hand one admitted query to
        the engine."""
        try:
            if uq is None:
                uq = self.engine.generator.generate(replace(kq, arrival=at))
            elif uq.arrival != at:
                uq = replace(uq, arrival=at, cqs=list(uq.cqs))
        except QueryError as exc:
            self._finish_empty(handle, at, str(exc))
            return
        if not uq.cqs:
            self._finish_empty(handle, at, "no candidate networks")
            return
        # The engine attributes batch-window / optimize / execution
        # spans to this execution's owning query through the alias.
        self.tracer.alias(uq.uq_id, handle.kq_id)
        self.engine.submit_user_query(uq, deadline=handle.deadline)
        handle.status = QueryStatus.IN_FLIGHT
        handle.via = "engine"
        handle.uq_id = uq.uq_id
        self._live[uq.uq_id] = handle
        key = normalize_key(handle.keywords, handle.k)
        self._inflight_keys.setdefault(key, uq.uq_id)
        self._watch(handle)

    def _finish_empty(self, handle: QueryHandle, at: float,
                      reason: str) -> None:
        """Serve a query no candidate network can answer: empty top-k."""
        self.telemetry.record_no_results()
        finish_done(handle, at, [], "empty", self.telemetry, self.tracer,
                    reason=reason)

    def _watch(self, handle: QueryHandle) -> None:
        if handle.deadline is not None:
            self._timed.append(handle)

    # -- progress --------------------------------------------------------------

    @property
    def in_flight_count(self) -> int:
        """Queries admitted to the engine and not yet completed (the
        router's load gauge, and the admission controller's)."""
        return len(self._live)

    def inflight_handle(self, key: CacheKey) -> QueryHandle | None:
        """The handle leading ``key``'s execution on this shard (a
        promoted follower included), else the first parked handle with
        that key, else ``None``.  The front door pins a twin to the
        first shard that answers, so it coalesces here: at once onto a
        running leader, or on the retry that admits a parked one."""
        uq_id = self._inflight_keys.get(key)
        if uq_id is not None:
            handle = self._live.get(uq_id)
            if handle is not None and not handle.terminal:
                return handle
        return next((handle for _kq, handle, _uq in self._deferred
                     if not handle.terminal
                     and normalize_key(handle.keywords, handle.k) == key),
                    None)

    def step(self, until: float) -> None:
        """Advance virtual time: execute (the engine enforces query
        deadlines mid-step), harvest completions and terminations,
        sweep shard-side deadlines, retry deferred queries against the
        freed budget."""
        self.clock.advance_to(until)
        self.engine.step(until)
        self._harvest()
        self._sweep_deadlines()
        self._retry_deferred(until)

    # -- the ShardWorker face ---------------------------------------------------
    # Split-phase step/drain with all the work in the start phase, so a
    # fleet of in-process shards runs in sequential order, bit-for-bit.

    start_step = step

    def finish_step(self) -> None:
        pass

    finish_drain = finish_step

    def registry_view(self) -> MetricsRegistry:
        return self.registry

    def drain(self) -> None:
        """Finish every admitted query (deferred ones included).  The
        clock catches up to the drained engine's, so later submissions
        cannot arrive in the past of already-recorded completions."""
        while True:
            self.engine.drain()
            self._harvest()
            self.clock.advance_to(self.engine.virtual_now())
            self._sweep_deadlines()
            if not self._deferred:
                return
            self._retry_deferred(self.clock.now)

    start_drain = drain

    def report(self) -> ServiceReport:
        engine_report = self.engine.report()
        self.telemetry.sync_optimizer(engine_report.metrics.optimizer_records)
        return ServiceReport(
            telemetry=self.telemetry,
            cache_stats=self.cache.stats.snapshot(),
            admission_stats=self.admission.snapshot(),
            engine_report=engine_report,
        )

    # -- streaming and cancellation ----------------------------------------------

    def answers_so_far(self, handle: QueryHandle) -> list[RankedAnswer]:
        """The handle's progressive emission: its final answers once
        terminal, else whatever its rank-merge has emitted."""
        if handle.answers is not None:
            return list(handle.answers)
        rm = self._rm_for(handle.uq_id)
        if rm is None:
            return []
        return list(rm.answers)

    def pump(self, handle: QueryHandle) -> bool:
        """Drive the shard until ``handle`` gains an answer, reaches a
        terminal state, or provably cannot progress right now.
        Returns whether its observable state changed (the engine
        behind :meth:`QueryHandle.results`)."""
        if handle.terminal:
            return False
        if handle.status is QueryStatus.DEFERRED:
            # Parked: only completions freeing the in-flight gauge can
            # help.  Run one batch window forward (at least one
            # virtual second, so a zero-window batcher still makes
            # progress); the step retries the parked queue, and an
            # empty shard always admits.
            self.step(self.clock.now + max(self.engine.batcher.window, 1.0))
            if handle.status is not QueryStatus.DEFERRED:
                return True
            return bool(self._live)
        uq_id = handle.uq_id
        if uq_id is None:
            return False
        if self.engine.qs.uq_graphs.get(uq_id) is None:
            # Still collecting in the batcher: run past the collection
            # window so the batch closes and the query dispatches.
            self.step(max(self.clock.now, handle.arrival)
                      + self.engine.batcher.window + 1e-9)
            return handle.terminal \
                or self.engine.qs.uq_graphs.get(uq_id) is not None
        before = len(self.answers_so_far(handle))
        progressed = self.engine.drive_query(uq_id)
        self._harvest()
        # Streaming pulls virtual time forward just as stepping does:
        # catch the clock up and sweep, so a consumer who only ever
        # pumps cannot outlive its deadline.
        self.clock.advance_to(self.engine.virtual_now())
        self._sweep_deadlines()
        return progressed or handle.terminal \
            or len(self.answers_so_far(handle)) > before

    def cancel(self, handle: QueryHandle) -> bool:
        """Abandon one query.  The engine's shared execution is killed
        only when no other query rides it: cancelling a coalesced
        follower detaches just that follower, and cancelling a leader
        with followers *promotes* one of them instead of tearing the
        execution down.  Returns False when already terminal (or not
        this shard's handle)."""
        if handle.terminal:
            return False
        at = self.clock.now
        if handle.status is QueryStatus.DEFERRED:
            kept = deque(
                entry for entry in self._deferred if entry[1] is not handle)
            if len(kept) == len(self._deferred):
                return False   # not parked here (another shard's handle)
            self._deferred = kept
            self._finish_terminated(handle, "cancelled", at, [], None)
            return True
        # Whatever the engine finished since the last harvest (e.g. the
        # caller drove it directly) resolves first: completion wins.
        self._harvest()
        if handle.terminal:
            return False
        return self._retire_handle(handle, "cancelled", at)

    def _retire_handle(self, handle: QueryHandle, how: str,
                       at: float) -> bool:
        """Release one in-flight handle's claim on its (possibly
        shared) engine execution and finish it as cancelled/expired.

        Dispatches on actual membership -- not on the handle's ``via``
        route label, which a promoted follower keeps as "coalesced":

        * the current *leader* (the ``_live`` entry) with followers
          left promotes the first of them, so the execution survives;
        * a sole-rider leader tears the execution down through the
          engine (the state manager's refcounted unlink), and the
          harvest resolves it from its terminal record;
        * a *follower* just detaches from the leader's in-flight entry.

        Returns False when the handle holds no claim here (another
        shard's handle, or a not-yet-dispatched query whose deadline
        the engine owns).
        """
        uq_id = handle.uq_id
        if uq_id is None:
            return False
        key = normalize_key(handle.keywords, handle.k)
        rm = self._rm_for(uq_id)
        partial = list(rm.answers) if rm is not None else []
        first = rm.first_emitted_at if rm is not None else None
        followers = self._followers.get(key, [])
        if self._live.get(uq_id) is handle:
            if followers:
                promoted = followers.pop(0)
                if not followers:
                    self._followers.pop(key, None)
                self._live[uq_id] = promoted
                # Execution spans attribute to the new leader from
                # here on: re-point the uq alias before finishing the
                # departing handle's trace.
                self.tracer.event(promoted.kq_id, "coalesce_promote",
                                  at, execution=uq_id)
                self.tracer.alias(uq_id, promoted.kq_id)
                self._finish_terminated(handle, how, at, partial, first)
                self.engine.set_deadline(
                    uq_id, self._effective_deadline(key, uq_id))
            else:
                self.engine.retire_query(uq_id, how, at=at)
                self._harvest()
            return True
        if handle in followers:
            followers.remove(handle)
            if not followers:
                self._followers.pop(key, None)
            self._finish_terminated(handle, how, at, partial, first)
            self.engine.set_deadline(
                uq_id, self._effective_deadline(key, uq_id))
            return True
        return False

    # -- internals ----------------------------------------------------------------

    def _rm_for(self, uq_id: str | None) -> RankMerge | None:
        if uq_id is None:
            return None
        graph_id = self.engine.qs.uq_graphs.get(uq_id)
        if graph_id is None:
            return None
        return self.engine.qs.graphs[graph_id].rank_merges.get(uq_id)

    def _effective_deadline(self, key: CacheKey,
                            uq_id: str | None) -> float | None:
        """The deadline of a (possibly shared) engine execution: the
        latest deadline over every query riding it -- ``None`` (no
        deadline) as soon as one rider has none."""
        holders: list[QueryHandle] = []
        if uq_id is not None:
            leader = self._live.get(uq_id)
            if leader is not None:
                holders.append(leader)
        holders.extend(self._followers.get(key, ()))
        if not holders:
            return None
        deadlines = [h.deadline for h in holders]
        if any(d is None for d in deadlines):
            return None
        return max(deadlines)

    def _finish_terminated(self, handle: QueryHandle, how: str, at: float,
                           answers: list,
                           first_emitted: float | None) -> None:
        """Resolve one cancelled/expired handle: partial answers, the
        termination instant, and the telemetry counter."""
        handle.status = QueryStatus.EXPIRED if how == "expired" \
            else QueryStatus.CANCELLED
        handle.answers = list(answers)
        handle.completed_at = at
        # The terminal cause replaces any interim note (e.g. the
        # admission gauge message a deferred query carried).
        if how != "expired":
            handle.reason = "cancelled by client"
        elif handle.deadline is not None:
            handle.reason = f"deadline {handle.deadline:g} expired"
        else:
            handle.reason = "deadline expired"
        ttfa = _ttfa_of(handle, answers, first_emitted)
        if how == "expired":
            self.telemetry.record_expiry(at, ttfa)
        else:
            self.telemetry.record_cancellation(at, ttfa)
        if answers and first_emitted is not None:
            self.tracer.event(handle.kq_id, "first_emission",
                              max(first_emitted, handle.arrival),
                              answers_so_far=len(answers))
        self.tracer.finish_query(handle.kq_id, at, how,
                                 reason=handle.reason, answers=len(answers))

    def _harvest(self) -> None:
        """Resolve the handles of every query the engine handed over
        since the last call (:meth:`~repro.atc.engine.QSystemEngine.
        take_terminals`, which also releases them from the engine),
        feed the cache, and release coalesced followers with their
        leader.  Only complete result sets reach the answer cache: a
        retired query's partial top-k must never serve a later twin as
        if it were the answer."""
        for terminal in self.engine.take_terminals():
            uq_id = terminal.uq_id
            handle = self._live.pop(uq_id, None)
            if handle is None:
                continue
            key = normalize_key(handle.keywords, handle.k)
            if self._inflight_keys.get(key) == uq_id:
                del self._inflight_keys[key]
            followers = self._followers.pop(key, [])
            at, answers = terminal.at, terminal.answers
            first = terminal.first_emitted
            if terminal.how == "done":
                finish_done(handle, at, answers, "engine", self.telemetry,
                            self.tracer, first_emitted=first)
                self.cache.put(key, answers, now=at)
                for follower in followers:
                    finish_done(follower, at, list(answers), "coalesced",
                                self.telemetry, self.tracer,
                                first_emitted=first)
                continue
            self._finish_terminated(handle, terminal.how, at, answers, first)
            for follower in followers:
                # The shared execution is gone; its riders terminate
                # with it (their personal deadlines were no earlier --
                # the execution lived to the latest one).
                self._finish_terminated(follower, terminal.how, at,
                                        list(answers), first)

    def _sweep_deadlines(self) -> None:
        """Expire watched handles whose deadline has passed.  The
        engine already fires execution deadlines at their exact
        instants; this sweep covers what only the shard can see --
        followers and promoted leaders whose *personal* deadline is
        earlier than the shared execution's effective one.  Completion
        always wins: sweeps run after the harvest, so a handle whose
        execution already finished is DONE by now.  Sweep expiries are
        stamped at the *observation* instant (the current clock), so a
        handle's answers-so-far never postdate its ``completed_at``;
        the missed deadline itself is recorded in ``reason``."""
        if not self._timed:
            return
        alive: list[QueryHandle] = []
        for handle in self._timed:
            if handle.terminal:
                continue
            if handle.deadline is None or handle.deadline > self.clock.now:
                alive.append(handle)
                continue
            if not self._expire_handle(handle):
                alive.append(handle)
        self._timed = alive

    def _expire_handle(self, handle: QueryHandle) -> bool:
        """Retire one overdue handle; returns False to keep watching
        (the engine owns the deadline).  Sweeps run only after a
        harvest, so a completed execution has already served it."""
        if (handle.uq_id is not None
                and self._live.get(handle.uq_id) is handle
                and self.engine.deadline_of(handle.uq_id)
                == handle.deadline):
            # The engine enforces exactly this instant by segmenting
            # the query's own execution there; expiring it from the
            # sweep -- whose clock may have been pulled ahead by some
            # *other* graph's streaming -- would retire it before its
            # graph was ever driven to the deadline.
            return False
        # False here likewise means the handle holds no claim on any
        # execution yet (not dispatched, with the engine holding its
        # deadline) -- the engine's segmentation owns the expiry.
        return self._retire_handle(handle, "expired", self.clock.now)

    def _retry_deferred(self, at: float) -> None:
        """Re-try parked queries: expire the overdue, serve from cache
        / coalesce if a twin finished (or is running) meanwhile, admit
        if the budget has freed, keep parked otherwise.  Uses the
        admission controller's silent gauge check, so retry attempts
        never inflate its per-query decision counters."""
        still: deque[tuple[KeywordQuery, QueryHandle,
                           UserQuery | None]] = deque()
        while self._deferred:
            kq, handle, uq = self._deferred.popleft()
            if handle.terminal:
                continue   # cancelled while parked
            if handle.deadline is not None and at >= handle.deadline:
                self._finish_terminated(
                    handle, "expired", handle.deadline, [], None)
                continue
            if self._serve_cached(handle, at) or self._coalesce(handle, at):
                continue
            if not self.admission.would_admit(in_flight=len(self._live)):
                still.append((kq, handle, uq))
                continue
            self.tracer.event(handle.kq_id, "admission", at,
                              action="accept", retry=True)
            self._start(kq, handle, at, uq=uq)
        self._deferred = still

    def _serve_cached(self, handle: QueryHandle, at: float) -> bool:
        """Serve a parked query whose twin completed meanwhile.  The
        poll is silent, so per-step retries do not inflate the cache's
        user-facing miss count; a hit is a real serve and counts."""
        key = normalize_key(handle.keywords, handle.k)
        if self.cache.get(key, now=at, record=False) is None:
            return False
        cached = self.cache.get(key, now=at)
        self.telemetry.record_cache_hit()
        finish_done(handle, at, list(cached), "cache", self.telemetry,
                    self.tracer)
        return True

    # -- observability ---------------------------------------------------------

    def _publish_metrics(self) -> None:
        """Collector: republish the owned components' plain counters as
        registry instruments, the optimizer totals of the telemetry
        included.  Runs only at snapshot/export time, so the hot paths
        keep their untyped attribute increments; every publish is
        *absolute* (``set``), making the collector idempotent no matter
        how often a snapshot is taken.
        """
        r = self.registry
        for decision, verb in (("accepted", "accepted"),
                               ("rejected", "shed"), ("deferred", "parked")):
            r.counter(f"repro_admission_{decision}_total",
                      f"queries {verb} on first decision"
                      ).set(getattr(self.admission, decision))
        batcher = self.engine.batcher
        r.gauge("repro_batcher_pending_queries",
                "user queries collecting in the batch window"
                ).set(batcher.pending_count)
        r.counter("repro_batcher_batches_closed_total",
                  "batches handed to the optimizer"
                  ).set(batcher.batches_closed)
        metrics = self.engine.report().metrics
        self.telemetry.sync_optimizer(metrics.optimizer_records)
        mode = self.engine.config.mode.value
        for name, (series, help) in ENGINE_SERIES.items():
            r.counter(series, help).set(getattr(metrics, name), mode=mode)
        reads = r.counter("repro_engine_source_reads_total",
                          "stream reads per data source")
        for source, count in sorted(metrics.per_source_reads.items()):
            reads.set(count, source=source)
        r.gauge("repro_state_tuples",
                "tuples currently stored across all plan graphs"
                ).set(self.engine.qs.total_state_size(), mode=mode)
