"""The front door: the one serving path, for any number of shards.

The serving layer has two roles.  A *shard*
(:class:`~repro.service.shard.Shard`) is one engine with its admission
controller, coalescing, deferral and deadline sweep; it runs either
in this process or in its own (:class:`~repro.service.workers.
ProcessWorker`).  :class:`ShardedQService` is the *front door* in
front of ``n_shards`` of them, and the only thing clients talk to --
the single-node :class:`~repro.service.server.QService` is this front
door over one in-process shard.  Handles, streaming results,
cancellation and deadlines therefore behave identically whichever
topology serves the query:

1. the **answer cache** sits at the front door: a repeat of any query
   already answered by *any* shard is served without routing,
   expansion, or engine work;
2. on a miss, with more than one shard, the **router**
   (:mod:`repro.service.routing`) picks the shard -- round-robin,
   keyword-hash, or cluster-affinity placement, which keeps queries
   over overlapping core relations on the same worker so ATC sharing
   keeps paying across the fleet;
3. **shard-aware admission**: each shard carries its own in-flight
   budget; when the routed shard is saturated the front door *spills
   over* to the least-loaded shard with headroom (affinity is a
   preference, shedding load is not), and only when the whole fleet is
   saturated does the shard's configured policy reject or defer;
4. **cancellation routes to the owning shard**: the handle remembers
   where it ran, and a coalesced twin -- pinned to its leader's shard
   by the front door, which asks the shards in order which one holds
   the key running or parked -- detaches from the leader's in-flight
   entry without ever killing the leader's execution;
5. per-shard telemetry aggregates into **fleet-level** p50/p95/p99,
   TTFA, and throughput over the union of all latency samples
   (:meth:`~repro.service.telemetry.Telemetry.merged`).

With one shard there is no routing decision, so steps 2-3, the pinning
of twins in step 4, and the routing report, trace event and
``repro_router_*`` series do not exist; the report has the shard's own
shape and its metrics merge in unlabelled.

All shards advance on the same arrival clock *instance*: the front
door creates one :class:`~repro.common.clock.Clock` (virtual by
default, wall for real serving) and hands it to every shard, so shard
clocks are mutually consistent by construction and the cache's TTL is
meaningful fleet-wide.  Streaming one shard's handle (which pulls that
shard's time forward) moves the *fleet* clock, so a deadline sweep can
never observe an instant some shard's own clock has not reached.

With the default ``workers="inproc"`` the shards live in this thread,
sharing the front door's clock, cache, plan repository and tracer (the
differential oracle: deterministic, sequential).  With
``workers="process"`` each is a :class:`~repro.service.workers.
ProcessWorker`: a shard in its own OS process behind the serializable
message protocol of :mod:`repro.service.protocol` -- true hardware
parallelism, crash isolation (a dead worker fails its queries as
``FAILED``, is respawned, and traffic reroutes meanwhile), with the
front door keeping the authoritative answer cache and mirroring
completions to the sibling workers' local caches.

The front door keeps no copy of what a tier below it owns.  Which
shard holds a key is asked of the shards themselves
(``inflight_handle``, answered locally on both transports), and a
stale cache entry leaves the cache on its own terms
(:class:`~repro.service.cache.ResultCache`), with no grooming
schedule here.

Typical use::

    fleet = ShardedQService(federation, config, n_shards=4,
                            routing="cluster")
    report = fleet.run(generate_load(federation, LoadConfig(...)))
    print(report.render())

    # true parallelism: one process per shard, rebuilt from a spec
    fleet = ShardedQService(federation, config, n_shards=4,
                            workers="process",
                            worker_spec=WorkerSpec.gus(config))
    try:
        report = fleet.run(load)
    finally:
        fleet.close()
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, replace

from repro.common.clock import Clock, VirtualClock
from repro.common.config import ExecutionConfig
from repro.common.errors import QueryError
from repro.data.database import Federation
from repro.data.inverted import InvertedIndex
from repro.keyword.candidates import CandidateNetworkGenerator
from repro.keyword.queries import KeywordQuery, RankedAnswer
from repro.obs.instruments import MetricsRegistry
from repro.obs.trace import NO_TRACER, QueryTrace
from repro.optimizer.repository import PlanRepository
from repro.service.cache import CacheKey, ResultCache, normalize_key
from repro.service.handle import QueryHandle
from repro.service.reports import ServiceReport
from repro.service.routing import RoutingPolicy, make_router
from repro.service.shard import ServiceConfig, Shard, finish_done
from repro.service.telemetry import Telemetry
from repro.service.workers import (
    ProcessWorker,
    ShardWorker,
    WorkerCrashed,
    WorkerSpec,
    encode_execution_config,
    encode_service_config,
    traces_from_jsonl,
)

__all__ = [
    "RoutingStats",
    "ShardedQService",
]


@dataclass
class RoutingStats:
    """Where the router actually sent the traffic."""

    policy: str
    routed: list[int]
    spillovers: int = 0
    front_cache_hits: int = 0
    #: Queries pinned to an in-flight twin's shard instead of the
    #: policy's pick, so the shard-level coalescing can catch them.
    affinity_overrides: int = 0
    #: Queries moved off a dead worker's shard to a surviving one.
    crash_reroutes: int = 0


class ShardedQService:
    """The front door over ``n_shards`` shards (each a
    :class:`~repro.service.workers.ShardWorker`), with pluggable shard
    routing when there is more than one."""

    def __init__(self, federation: Federation, config: ExecutionConfig,
                 n_shards: int = 2,
                 routing: str | RoutingPolicy = "cluster",
                 service: ServiceConfig | None = None,
                 index: InvertedIndex | None = None,
                 tracer=None,
                 clock: Clock | None = None,
                 workers: str = "inproc",
                 worker_spec: WorkerSpec | None = None) -> None:
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        if workers not in ("inproc", "process"):
            raise ValueError(
                f"workers must be 'inproc' or 'process', got {workers!r}")
        self.n_shards = n_shards
        #: One clock for the whole fleet (see the module docstring):
        #: front door and every shard read -- and advance -- the same
        #: instance, so "now" is a fleet-wide fact.  The default
        #: ``VirtualClock`` replays simulated arrival streams
        #: deterministically (the correctness oracle); a ``WallClock``
        #: serves real arrivals (the HTTP front end).
        self.clock: Clock = clock if clock is not None else VirtualClock()
        self.service_config = service or ServiceConfig()
        #: One tracer for the whole fleet: the front door opens each
        #: query's trace and the owning shard adds to it, so a query
        #: gets a single span tree spanning both tiers.  The no-op
        #: default is the off switch: record sites call it
        #: unconditionally.
        self.tracer = tracer if tracer is not None else NO_TRACER
        #: The front door's own metric namespace (shared cache, shared
        #: plan repository, router, front-door telemetry -- the tiers
        #: only it owns); shard registries are merged in by
        #: :meth:`metrics_registry`.
        self.registry = MetricsRegistry()
        self.index = index if index is not None else InvertedIndex(federation)
        # One plan repository for the whole fleet: expansions derived
        # from the same federation are shard-independent, so without a
        # shared tier N shards would each expand every keyword set.
        self.repository = PlanRepository(federation, config)
        # One expansion pipeline for the whole fleet: the router may
        # need the candidate networks before placement, and shards
        # should not each rebuild the inverted index.
        self.generator = CandidateNetworkGenerator(
            federation, index=self.index, max_cqs=config.max_cqs_per_uq,
            repository=self.repository)
        #: The authoritative answer cache: consulted at the front door
        #: before routing, written on every engine completion anywhere.
        self.cache: ResultCache = ResultCache(
            ttl=self.service_config.cache_ttl,
            capacity=self.service_config.cache_capacity)
        #: Front-door telemetry: arrivals served by the cache never
        #: reach a shard, so their latencies live here -- plus the
        #: fleet's ``failed``/``worker_restarts`` crash counters (worker
        #: snapshots can lag a crash; the front door cannot).
        self.telemetry = Telemetry(self.registry)
        self.workers: list[ShardWorker]
        if workers == "process":
            spec = worker_spec
            if spec is None:
                raise ValueError(
                    "process workers need a worker_spec (a serializable "
                    "recipe to rebuild the federation in each worker)")
            # The fleet's execution/service configs and tracing flag
            # are authoritative; the spec only has to know the corpus.
            spec = replace(
                spec,
                config=encode_execution_config(config),
                service=encode_service_config(self.service_config),
                trace=bool(self.tracer.enabled))
            self.workers = [
                ProcessWorker(i, spec, clock=self.clock,
                              front_telemetry=self.telemetry,
                              front_tracer=self.tracer,
                              on_completion=self._on_worker_completion)
                for i in range(n_shards)
            ]
        else:
            self.workers = [
                Shard(federation, config, self.service_config,
                      generator=self.generator, index=self.index,
                      cache=self.cache, repository=self.repository,
                      tracer=self.tracer, clock=self.clock)
                for _ in range(n_shards)
            ]
        #: No router (and no routing stats) with a single shard: there
        #: is nothing to decide.
        self.router: RoutingPolicy | None = None
        self.routing_stats: RoutingStats | None = None
        if n_shards > 1:
            self.router = make_router(
                routing,
                merge_threshold=config.cluster_jaccard,
                min_refs=config.cluster_min_refs,
            )
            self.routing_stats = RoutingStats(policy=self.router.name,
                                              routed=[0] * n_shards)
        self.registry.add_collector(self._publish_metrics)
        self.tickets: list[QueryHandle] = []

    # -- intake ---------------------------------------------------------------

    def submit(self, kq: KeywordQuery, arrival: float | None = None, *,
               deadline: float | None = None) -> QueryHandle:
        """Admit one keyword query at its (virtual) arrival instant;
        returns its live :class:`QueryHandle`.

        Every shard first advances to the arrival -- queries admitted
        earlier keep running and completing in the meantime -- then
        the query is served from the cache or handed to a shard, which
        coalesces, admits, defers or sheds it.

        ``deadline`` is an *absolute* virtual instant (defaults to
        ``arrival + ServiceConfig.default_deadline`` when that is
        configured)."""
        at = kq.arrival if arrival is None else arrival
        at = max(at, self.clock.now)
        if deadline is None and self.service_config.default_deadline \
                is not None:
            deadline = at + self.service_config.default_deadline
        self.tracer.start_query(kq.kq_id, at,
                                keywords=" ".join(kq.keywords), k=kq.k)
        self.step(at)

        key = normalize_key(kq.keywords, kq.k)
        cached = self.cache.get(key, now=at)
        self.tracer.event(kq.kq_id, "cache_lookup", at,
                          result="hit" if cached is not None else "miss")
        if cached is not None:
            if self.routing_stats is not None:
                self.routing_stats.front_cache_hits += 1
            self.telemetry.record_cache_hit()
            return self._serve_at_front_door(kq, at, deadline, via="cache",
                                             answers=list(cached))
        if self.router is None:
            return self._hand_to(0, kq, at, deadline, None)

        leader_shard = self._leader_shard(key)
        uq = None
        if leader_shard is not None:
            # An identical query is running or parked on
            # ``leader_shard``: pin this one there (skipping the policy
            # *and* spill-over -- coalescing happens before admission,
            # so saturation is moot) and let the shard coalesce it.
            # Otherwise a content-blind policy (round robin) scatters
            # twins across shards, and each copy runs the full plan.
            self.routing_stats.affinity_overrides += 1
            shard = leader_shard
        else:
            if self.router.needs_expansion:
                try:
                    uq = self.generator.generate(replace(kq, arrival=at))
                except QueryError as exc:
                    # Unmatchable keywords: serve the empty answer at
                    # the front door rather than routing a query the
                    # shard would only re-expand to re-discover the
                    # failure.
                    self.telemetry.record_no_results()
                    return self._serve_at_front_door(
                        kq, at, deadline, via="empty", answers=[],
                        reason=str(exc))
            shard = self.router.route(kq, uq, self.n_shards)
            shard = self._reroute_dead(shard)
            shard = self._spill(shard)
        self.tracer.event(kq.kq_id, "route", at, shard=shard,
                          policy=self.router.name,
                          **({"coalesce_pin": True}
                             if leader_shard is not None else {}))
        handle = self._hand_to(shard, kq, at, deadline, uq)
        self.routing_stats.routed[handle.shard] += 1
        return handle

    def _leader_shard(self, key: CacheKey) -> int | None:
        """The first shard, in shard order, holding an unresolved
        query with cache key ``key`` (running or parked); ``None`` when
        there is none or coalescing is off.  Each shard knows its own
        queries, so a promotion or a cancellation there is seen here
        with no bookkeeping at the front door."""
        if not self.service_config.coalesce:
            return None
        return next((i for i, worker in enumerate(self.workers)
                     if worker.inflight_handle(key) is not None), None)

    def _serve_at_front_door(self, kq: KeywordQuery, at: float,
                             deadline: float | None, via: str,
                             answers: list[RankedAnswer],
                             reason: str = "") -> QueryHandle:
        """Resolve one arrival without any shard: a done handle with
        the front door's telemetry bookkeeping (zero latency -- the
        query never waited on any engine)."""
        handle = QueryHandle(kq_id=kq.kq_id, keywords=tuple(kq.keywords),
                             k=kq.k, arrival=at, deadline=deadline,
                             service=self)
        self.tickets.append(handle)
        self.telemetry.record_arrival(at)
        finish_done(handle, at, answers, via, self.telemetry, self.tracer,
                    reason=reason)
        return handle

    def _hand_to(self, shard: int, kq: KeywordQuery, at: float,
                 deadline: float | None, uq) -> QueryHandle:
        """Hand the query to ``shard``, rerouting to a surviving shard
        if the worker crashes mid-submit (its in-flight queries are
        already failed by then; this arrival is not among them and
        deserves a live worker).  The handle joins the front door's
        table, and answers to it."""
        tried: set[int] = set()
        for _attempt in range(self.n_shards + 1):
            try:
                handle = self.workers[shard].submit(
                    kq, at, deadline=deadline, uq=uq)
            except WorkerCrashed:
                tried.add(shard)
                fallback = self._least_loaded(exclude=tried)
                if fallback is None:
                    # Every shard crashed under this one query; a
                    # respawned worker (``alive`` again) gets one last
                    # chance, otherwise give up.
                    fallback = self._least_loaded()
                    if fallback is None:
                        raise
                if self.routing_stats is not None:
                    self.routing_stats.crash_reroutes += 1
                shard = fallback
                continue
            handle.shard = shard
            handle.service = self
            self.tickets.append(handle)
            return handle
        raise WorkerCrashed(
            f"submit of {kq.kq_id} crashed every worker it reached")

    def _least_loaded(self, exclude: Collection[int] = ()) -> int | None:
        """The live shard with the fewest queries in flight (lowest
        index on ties), skipping ``exclude``; ``None`` when none is
        alive."""
        return min((i for i in range(self.n_shards)
                    if i not in exclude and self.workers[i].alive),
                   key=lambda i: (self.workers[i].in_flight_count, i),
                   default=None)

    def _reroute_dead(self, shard: int) -> int:
        """Routing is crash-aware: a policy pick landing on a dead
        worker (its respawn failed) moves to the least-loaded
        surviving shard."""
        if self.workers[shard].alive:
            return shard
        fallback = self._least_loaded()
        if fallback is None:
            raise WorkerCrashed("every shard's worker is dead")
        self.routing_stats.crash_reroutes += 1
        return fallback

    def _spill(self, shard: int) -> int:
        """Shard-aware admission: prefer the routed shard, but when its
        in-flight budget is exhausted hand the query to the least-loaded
        shard with headroom instead of shedding it.  Returns the routed
        shard unchanged when the whole fleet is saturated -- that
        shard's own policy then rejects or defers."""
        budget = self.service_config.max_in_flight
        if budget is None or self.workers[shard].in_flight_count < budget:
            return shard
        best = self._least_loaded()
        if best is not None and best != shard \
                and self.workers[best].in_flight_count < budget:
            self.routing_stats.spillovers += 1
            return best
        return shard

    # -- streaming and cancellation ----------------------------------------------

    def cancel(self, handle: QueryHandle) -> bool:
        """Route the cancellation to the shard that owns the query.
        A coalesced twin detaches from the leader's in-flight entry
        there; the leader's execution is only torn down once nothing
        rides it.  Returns False when already terminal (or not this
        front door's handle)."""
        if handle.terminal or handle.shard is None:
            return False
        return self.workers[handle.shard].cancel(handle)

    def answers_so_far(self, handle: QueryHandle) -> list[RankedAnswer]:
        """The handle's progressive emission: its final answers once
        terminal, else whatever its rank-merge has emitted."""
        if handle.answers is not None:
            return list(handle.answers)
        if handle.shard is None:
            return []
        return self.workers[handle.shard].answers_so_far(handle)

    def pump(self, handle: QueryHandle) -> bool:
        """Drive the owning shard until ``handle`` gains an answer,
        reaches a terminal state, or provably cannot progress right
        now; returns whether anything changed (the engine behind
        :meth:`QueryHandle.results`)."""
        if handle.terminal or handle.shard is None:
            return False
        return self.workers[handle.shard].pump(handle)

    # -- progress --------------------------------------------------------------

    def step(self, until: float) -> None:
        """Advance every shard in lockstep on the shared clock;
        completions harvested anywhere land in the cache immediately."""
        self.clock.advance_to(until)
        self._broadcast("step", self.clock.now)

    def drain(self) -> ServiceReport:
        """Finish every admitted query on every shard and return the
        report.  Shards drain in order, so a shard's completions
        populate the cache before later shards retry their deferred
        queries.  Each shard's drain advances the *shared* clock to its
        drained engine's time, so post-drain submissions are clamped
        past everything already recorded (and past the cache's newest
        entries).  Under process workers the drains genuinely overlap
        (start all, then collect all) -- this is where the wall-clock
        scaling lives, since drain does the bulk of the engine work
        under saturation."""
        self._broadcast("drain")
        return self.report()

    def _broadcast(self, verb: str, *args: float) -> None:
        """Split-phase fan-out of ``step`` or ``drain``: start every
        live shard, then collect every shard -- process workers
        genuinely overlap here, in-process shards do all the work in
        the start phase (sequentially, in shard order).  A worker
        crashing mid-phase fails its own queries and is skipped; the
        surviving shards complete normally."""
        start, finish = f"start_{verb}", f"finish_{verb}"
        for worker in self.workers:
            if worker.alive:
                try:
                    getattr(worker, start)(*args)
                except WorkerCrashed:
                    pass
        for worker in self.workers:
            try:
                getattr(worker, finish)()
            except WorkerCrashed:
                pass

    def report(self) -> ServiceReport:
        """The serving report: telemetry merged over the front door and
        every shard, the cache's stats, and every handle.  A fleet adds
        one report per shard and the routing stats; one shard lends
        its engine report and admission stats instead."""
        shard_reports = [worker.report() for worker in self.workers]
        report = ServiceReport(
            telemetry=Telemetry.merged(
                [self.telemetry] + [r.telemetry for r in shard_reports]),
            cache_stats=self.cache.stats.snapshot(),
            tickets=list(self.tickets),
        )
        if self.routing_stats is None:
            report.admission_stats = shard_reports[0].admission_stats
            report.engine_report = shard_reports[0].engine_report
        else:
            report.shard_reports = shard_reports
            report.routing = self.routing_stats
        return report

    def run(self, load: list[KeywordQuery],
            cancellations: dict[str, float] | None = None) -> ServiceReport:
        """Serve one open-loop arrival stream end to end; returns the
        drained report.

        ``cancellations`` optionally schedules client abandonment
        (``kq_id`` -> virtual cancel instant, as produced by
        :func:`repro.service.loadgen.generate_abandonments`); each due
        cancellation is applied at its instant, interleaved with the
        arrivals.
        """
        cancels = sorted((cancellations or {}).items(), key=lambda kv: kv[1])
        handles: dict[str, QueryHandle] = {}

        def fire_due(now: float | None) -> None:
            while cancels and (now is None or cancels[0][1] <= now):
                kq_id, at = cancels.pop(0)
                handle = handles.get(kq_id)
                if handle is None or handle.terminal:
                    continue
                self.step(at)
                handle.cancel()

        for kq in sorted(load, key=lambda q: q.arrival):
            fire_due(kq.arrival)
            handles[kq.kq_id] = self.submit(kq)
        fire_due(None)
        return self.drain()

    # -- observability ---------------------------------------------------------

    def metrics_registry(self) -> MetricsRegistry:
        """The service-wide registry with every collector refreshed --
        the exporters' entry point: the front door's own instruments
        unlabelled, merged with every shard's, which a fleet stamps
        with a ``shard`` label.  Because each component is published by
        exactly one owner, the merge never double counts."""
        labelled = self.n_shards > 1
        return MetricsRegistry.merged(
            [(self.registry, {})]
            + [(worker.registry_view(), {"shard": str(i)} if labelled else {})
               for i, worker in enumerate(self.workers)])

    def trace_of(self, handle: QueryHandle) -> QueryTrace | None:
        """The handle's span tree (``None`` when tracing is off).

        In-process shards join the front door's tracer, so its trace
        already holds the shard spans.  A process worker records its
        spans in its own tracer; they are fetched on demand and merged
        by :meth:`QueryTrace.merged_with`, leaving both recorders
        untouched."""
        front = self.tracer.trace(handle.kq_id)
        worker = None if handle.shard is None \
            else self.workers[handle.shard]
        if not isinstance(worker, ProcessWorker) or not self.tracer.enabled:
            return front
        worker_traces = traces_from_jsonl(worker.trace_lines(handle.kq_id))
        if not worker_traces:
            return front
        theirs = worker_traces[-1]
        if front is None:
            return theirs
        return front.merged_with(theirs)

    # -- worker-fleet plumbing -------------------------------------------------

    def _on_worker_completion(self, origin, key, answers,
                              completed_at: float) -> None:
        """A process worker completed a query via its engine: write
        the authoritative cache and mirror to the sibling workers (the
        origin already has it in its local cache)."""
        self.cache.put(key, answers, now=completed_at)
        for worker in self.workers:
            if worker is not origin and isinstance(worker, ProcessWorker):
                worker.enqueue_cache_put(key, answers, completed_at)

    def close(self) -> None:
        """Shut the worker fleet down.  Process workers first ship
        their recorded trace spans back (adopted into the fleet
        tracer, so ``--trace-dir`` exports include worker spans), then
        exit; in-process shards have nothing to release.  Idempotent."""
        for worker in self.workers:
            if not isinstance(worker, ProcessWorker):
                continue
            if self.tracer.enabled and worker.alive:
                for trace in traces_from_jsonl(worker.trace_lines(None)):
                    self.tracer.adopt(trace)
            worker.close()

    def __enter__(self) -> "ShardedQService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _publish_metrics(self) -> None:
        """Collector for the tiers only the front door owns: the
        answer cache, the shared plan repository, the router, and the
        process workers' seam (round trips and frame bytes).
        Shards are constructed with both tiers handed in, so they
        never publish them -- one owner per component."""
        r = self.registry
        self.cache.publish_metrics(r)
        self.repository.publish_metrics(r)
        for i, worker in enumerate(self.workers):
            if isinstance(worker, ProcessWorker):
                r.counter("repro_worker_round_trips_total",
                          "requests a process worker answered, per shard"
                          ).set(worker.round_trips, shard=str(i))
                wire = r.counter("repro_worker_wire_bytes_total",
                                 "protocol frame bytes, per shard and "
                                 "direction (as the front door sees it)")
                wire.set(worker.bytes_sent, shard=str(i), direction="sent")
                wire.set(worker.bytes_received, shard=str(i),
                         direction="received")
        rs = self.routing_stats
        if rs is None:
            return
        routed = r.counter("repro_router_routed_total",
                           "queries routed, per shard")
        for i, n in enumerate(rs.routed):
            routed.set(n, shard=str(i))
        r.counter("repro_router_spillovers_total",
                  "queries spilled past a saturated shard"
                  ).set(rs.spillovers)
        r.counter("repro_router_front_cache_hits_total",
                  "arrivals served at the front door's shared cache"
                  ).set(rs.front_cache_hits)
        r.counter("repro_router_affinity_overrides_total",
                  "queries pinned to an in-flight twin's shard"
                  ).set(rs.affinity_overrides)
