"""Shard workers: the interface the front door drives, and the pipe.

The serving layer has two roles: the front door
(:class:`~repro.service.sharding.ShardedQService`, which the
single-node :class:`~repro.service.server.QService` is with one shard)
and the shards behind it, each in this process or in its own:

* :class:`ShardWorker` -- the narrow surface the front door drives on
  each shard: submit / cancel / answers-so-far / pump / step / drain /
  report, plus the crash surface (``alive``) and a registry view.
  Step and drain are *split-phase* (``start_step`` then
  ``finish_step``): the front door starts every shard, then collects
  every shard.  Two implementations: :class:`~repro.service.shard.
  Shard` itself (``workers="inproc"``: all work in the start phase,
  sharing the front door's clock, cache, plan repository and tracer --
  the sequential differential oracle) and :class:`ProcessWorker`.
* :class:`ProcessWorker` -- one shard in its own OS process, so shards
  genuinely overlap.  Spawn-safe: the child (:class:`_WorkerServer`)
  rebuilds a :class:`~repro.service.shard.Shard` from a serializable
  :class:`WorkerSpec` (corpus recipe + configs + seed), never from
  pickled object graphs, and speaks the versioned wire protocol of
  :mod:`repro.service.protocol` over a pipe.  Time crosses the
  boundary *by message*: every request carries the fleet's ``now``,
  every reply the worker's, so the fleet's single-"now" invariant
  holds at message granularity under virtual and wall clocks alike.

Cache and repository topology under process workers: the front door
keeps the *authoritative* answer cache -- consulted before routing --
while each worker owns, grooms and publishes a per-process cache and
plan repository.  Engine completions ship back in each reply's
piggy-backed :class:`~repro.service.protocol.WorkerUpdate`; the front
door writes them into the authoritative cache and mirrors them to the
*other* workers as :class:`~repro.service.protocol.CachePut` messages
(sent one-way, ahead of each worker's next request, which the pipe
orders after them), so deferred retries observe fleet-wide completions
just as a shared in-process cache would.  Answers emitted so far ride
the same events, as deltas, so the proxies answer answers-so-far and
in-flight leadership without a round trip.

Crash surface: a worker process dying (broken pipe, nonzero exit)
fails that shard's in-flight queries with a ``FAILED`` disposition
(reason names the crash) instead of hanging the harvest loop, counts
``worker_restarts`` in the front door's telemetry, respawns the worker
(with a fresh plan repository, which expands on demand) when restarts
are enabled, and the front door reroutes subsequent traffic to
surviving shards meanwhile.
"""

from __future__ import annotations

import json
import multiprocessing as mp
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, fields
from typing import Protocol, runtime_checkable

from repro.atc.engine import EngineReport
from repro.common.clock import Clock, VirtualClock
from repro.common.config import DelayModel, ExecutionConfig, SharingMode
from repro.common.errors import ExecutionError
from repro.data.figure1 import figure1_federation
from repro.data.gus import GUSConfig, gus_federation
from repro.data.inverted import InvertedIndex
from repro.keyword.candidates import CandidateNetworkGenerator
from repro.keyword.queries import KeywordQuery, RankedAnswer
from repro.obs.instruments import MetricsRegistry
from repro.obs.records import Metrics
from repro.obs.trace import NO_TRACER, NullTracer, QueryTrace, Span, Tracer
from repro.optimizer.repository import PlanRepository
from repro.service.cache import (
    CacheKey,
    PurgeCadence,
    ResultCache,
    normalize_key,
)
from repro.service.handle import QueryHandle, QueryStatus
from repro.service.protocol import (
    Ack,
    BoolReply,
    CachePut,
    CancelQuery,
    DrainShard,
    HandleState,
    Message,
    ProtocolError,
    PumpQuery,
    Shutdown,
    SnapshotReply,
    StepTo,
    SubmitQuery,
    SubmitReply,
    TelemetrySnapshot,
    TraceDump,
    TraceReply,
    WorkerUpdate,
    decode,
    decode_answers,
    encode,
    encode_answers,
)
from repro.service.reports import ServiceReport
from repro.service.shard import ServiceConfig, Shard
from repro.service.telemetry import Telemetry

__all__ = [
    "ShardWorker",
    "ProcessWorker",
    "WorkerCrashed",
    "WorkerSpec",
    "encode_execution_config",
    "decode_execution_config",
    "encode_service_config",
    "decode_service_config",
    "metrics_state",
    "metrics_from_state",
    "traces_from_jsonl",
]


class WorkerCrashed(ExecutionError):
    """A shard's worker process died (broken pipe / nonzero exit).

    Raised to the front door mid-operation; the queries that were in
    flight on the dead worker are already failed (``FAILED``
    disposition) by the time this propagates."""


# -- serializable configuration ----------------------------------------------

def encode_execution_config(config: ExecutionConfig) -> dict:
    """An :class:`~repro.common.config.ExecutionConfig` as plain JSON
    data (the mode travels by enum value, delays nested)."""
    payload = asdict(config)
    payload["mode"] = config.mode.value
    return payload


def decode_execution_config(payload: dict) -> ExecutionConfig:
    payload = dict(payload)
    payload["mode"] = SharingMode(payload["mode"])
    payload["delays"] = DelayModel(**dict(payload["delays"]))
    return ExecutionConfig(**payload)


def encode_service_config(config: ServiceConfig) -> dict:
    return asdict(config)


def decode_service_config(payload: dict) -> ServiceConfig:
    return ServiceConfig(**dict(payload))


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker *process* needs to rebuild its engine,
    as plain data: a corpus recipe (never a pickled federation), the
    execution and service configs, and a tracing flag.

    The corpus recipe names one of the deterministic generators --
    ``{"kind": "gus", ...GUSConfig fields}`` or ``{"kind": "figure1",
    "seed": ..., "cardinalities": ..., "domain_factor": ...}`` -- so a
    spawned worker reconstructs *exactly* the federation the front
    door serves (same generator, same seed, same rows).
    """

    corpus: dict
    config: dict
    service: dict | None = None
    trace: bool = False

    @classmethod
    def gus(cls, config: ExecutionConfig,
            gus_config: GUSConfig | None = None,
            service: ServiceConfig | None = None) -> "WorkerSpec":
        corpus = {"kind": "gus", **asdict(gus_config or GUSConfig())}
        return cls(corpus=corpus, config=encode_execution_config(config),
                   service=None if service is None
                   else encode_service_config(service))

    @classmethod
    def figure1(cls, config: ExecutionConfig, *, seed: int = 7,
                cardinalities: dict[str, int] | None = None,
                domain_factor: float = 0.25,
                service: ServiceConfig | None = None) -> "WorkerSpec":
        corpus = {"kind": "figure1", "seed": seed,
                  "cardinalities": dict(cardinalities)
                  if cardinalities is not None else None,
                  "domain_factor": domain_factor}
        return cls(corpus=corpus, config=encode_execution_config(config),
                   service=None if service is None
                   else encode_service_config(service))

    # -- reconstruction -----------------------------------------------------

    def build_federation(self):
        corpus = dict(self.corpus)
        kind = corpus.pop("kind", None)
        if kind == "gus":
            return gus_federation(GUSConfig(**corpus))
        if kind == "figure1":
            return figure1_federation(
                seed=corpus.get("seed", 7),
                cardinalities=corpus.get("cardinalities"),
                domain_factor=corpus.get("domain_factor", 0.25))
        raise ValueError(f"unknown corpus kind {kind!r}")

    def execution_config(self) -> ExecutionConfig:
        return decode_execution_config(self.config)

    def service_config(self) -> ServiceConfig | None:
        return None if self.service is None \
            else decode_service_config(self.service)

    # -- wire ---------------------------------------------------------------

    def to_wire(self) -> bytes:
        return json.dumps(asdict(self), separators=(",", ":"),
                          sort_keys=True).encode("utf-8")

    @classmethod
    def from_wire(cls, data: bytes) -> "WorkerSpec":
        return cls(**json.loads(data.decode("utf-8")))


# -- engine-metrics wire state ------------------------------------------------

#: Every int/float counter of :class:`Metrics`, read off the dataclass
#: so a new engine counter cannot silently drop out of the fleet view.
_SCALARS = tuple(f.name for f in fields(Metrics)
                 if f.type in ("int", "float"))


def metrics_state(metrics: Metrics) -> dict:
    """The engine work counters as plain data (per-query records stay
    on the worker; the fleet view needs the totals)."""
    state = {name: getattr(metrics, name) for name in _SCALARS}
    state["per_source_reads"] = dict(metrics.per_source_reads)
    return state


def metrics_from_state(state: dict) -> Metrics:
    metrics = Metrics(**{name: state.get(name, 0) for name in _SCALARS})
    metrics.per_source_reads.update(state.get("per_source_reads", {}))
    return metrics


# -- trace rebuilding ---------------------------------------------------------

def traces_from_jsonl(lines: Iterable[str]) -> list[QueryTrace]:
    """Rebuild span trees from a worker's JSONL trace dump (the exact
    lines :meth:`~repro.obs.trace.Tracer.jsonl_lines` emitted: parents
    precede children, each trace's root carries ``parent: null``)."""
    traces: list[QueryTrace] = []
    spans: dict[int, Span] = {}
    for line in lines:
        rec = json.loads(line)
        span = Span(name=rec["name"], v_start=rec["virtual_start"],
                    v_end=rec["virtual_end"], w_start=rec["wall_start"],
                    w_end=rec["wall_end"], attrs=dict(rec["attrs"] or {}))
        if rec["parent"] is None:
            spans = {rec["span"]: span}
            trace = QueryTrace(rec["query"], span)
            trace.finished = span.attrs.get("disposition") is not None
            traces.append(trace)
        else:
            spans[rec["parent"]].children.append(span)
            spans[rec["span"]] = span
    return traces


# -- the worker interface -----------------------------------------------------

@runtime_checkable
class ShardWorker(Protocol):
    """The narrow surface the front door drives, implemented by
    :class:`~repro.service.shard.Shard` (the in-process shard) and
    :class:`ProcessWorker`.

    ``start_step``/``finish_step`` (and the drain pair) are
    split-phase so N process workers overlap: the front door starts
    every shard's step, then collects every shard's completion.  The
    in-process shard does all its work in the start phase, keeping
    the sequential order of the single-threaded service bit-for-bit.
    What only a process has -- a pipe to close, spans to ship back,
    a local cache to mirror completions into -- is not part of the
    interface; the front door asks for it by transport.
    """

    @property
    def alive(self) -> bool: ...

    def submit(self, kq: KeywordQuery, arrival: float, *,
               deadline: float | None = None, uq=None) -> QueryHandle: ...

    def cancel(self, handle: QueryHandle) -> bool: ...

    def answers_so_far(self, handle: QueryHandle) -> list[RankedAnswer]: ...

    def pump(self, handle: QueryHandle) -> bool: ...

    def inflight_handle(self, key: CacheKey) -> QueryHandle | None: ...

    def start_step(self, until: float) -> None: ...

    def finish_step(self) -> None: ...

    def start_drain(self) -> None: ...

    def finish_drain(self) -> None: ...

    @property
    def in_flight_count(self) -> int: ...

    @property
    def deferred_count(self) -> int: ...

    def report(self) -> ServiceReport: ...

    def registry_view(self) -> MetricsRegistry: ...


# -- the worker process -------------------------------------------------------

def _worker_main(conn, spec_wire: bytes) -> None:
    """Spawn entry point: rebuild the engine from the spec and serve
    the wire protocol until shutdown or front-door death."""
    try:
        server = _WorkerServer(WorkerSpec.from_wire(spec_wire))
        server.serve(conn)
    finally:
        conn.close()


class _WorkerServer:
    """The worker-process side of the protocol: one local
    :class:`~repro.service.shard.Shard` on a private virtual clock
    (mirroring fleet instants carried by messages), with the tiers a
    front door would own -- a per-process answer cache (groomed after
    every request) and plan repository, both published in the shard's
    registry -- plus the dirty-handle tracker that turns status changes
    and new answers into piggy-backed events."""

    def __init__(self, spec: WorkerSpec) -> None:
        federation = spec.build_federation()
        config = spec.execution_config()
        service = spec.service_config() or ServiceConfig()
        self.tracer = Tracer() if spec.trace else NO_TRACER
        index = InvertedIndex(federation)
        repository = PlanRepository(federation, config)
        cache = ResultCache(ttl=service.cache_ttl,
                            capacity=service.cache_capacity)
        self.service = Shard(
            federation, config, service,
            generator=CandidateNetworkGenerator(
                federation, index=index, max_cqs=config.max_cqs_per_uq,
                repository=repository),
            index=index, cache=cache, repository=repository,
            tracer=self.tracer, clock=VirtualClock())
        self._cadence = PurgeCadence(cache)
        registry = self.service.registry
        registry.add_collector(lambda: cache.publish_metrics(registry))
        registry.add_collector(lambda: repository.publish_metrics(registry))
        #: Non-terminal handles we owe events for (the only ones the
        #: front door still addresses), and the last state fingerprint
        #: reported for each; an entry leaves both with the event that
        #: reports its handle terminal.
        self._watched: dict[str, QueryHandle] = {}
        self._reported: dict[str, tuple] = {}

    # -- event tracking ------------------------------------------------------

    def _report(self, handle: QueryHandle) -> HandleState | None:
        """The handle's state if it changed since last reported, else
        ``None``.  A live state carries the answers emitted since the
        last report (all of them on the first); a terminal one its
        final answers, and the handle is forgotten."""
        so_far = self.service.answers_so_far(handle)
        fp = (handle.status.value, handle.via, handle.uq_id,
              handle.completed_at, handle.reason, len(so_far))
        last = self._reported.get(handle.kq_id)
        if fp == last:
            return None
        if handle.terminal:
            self._watched.pop(handle.kq_id, None)
            self._reported.pop(handle.kq_id, None)
            so_far = []
        else:
            self._watched[handle.kq_id] = handle
            self._reported[handle.kq_id] = fp
            so_far = so_far[0 if last is None else last[-1]:]
        return HandleState(
            kq_id=handle.kq_id,
            status=handle.status.value,
            via=handle.via,
            uq_id=handle.uq_id,
            answers=encode_answers(handle.answers)
            if handle.terminal else None,
            completed_at=handle.completed_at,
            reason=handle.reason,
            deadline=handle.deadline,
            arrival=handle.arrival,
            emitted=encode_answers(so_far),
        )

    def _update(self) -> WorkerUpdate:
        svc = self.service
        self._cadence.fire(svc.clock.now)
        events = [state for state in map(self._report,
                                         list(self._watched.values()))
                  if state is not None]
        return WorkerUpdate(now=svc.clock.now,
                            in_flight=svc.in_flight_count,
                            deferred=svc.deferred_count,
                            events=tuple(events))

    # -- the request loop ----------------------------------------------------

    def serve(self, conn) -> None:
        while True:
            try:
                data = conn.recv_bytes()
            except EOFError:
                return  # front door went away; nothing left to serve
            msg = decode(data)
            reply = self.dispatch(msg)
            if reply is not None:
                conn.send_bytes(encode(reply))
            if isinstance(msg, Shutdown):
                return

    def dispatch(self, msg: Message) -> Message | None:
        svc = self.service
        if isinstance(msg, SubmitQuery):
            kq = KeywordQuery(kq_id=msg.kq_id,
                              keywords=tuple(msg.keywords), k=msg.k,
                              user=msg.user, arrival=msg.arrival)
            # The front door opened this query's trace in its own
            # tracer; the worker's spans need a root here too.
            self.tracer.start_query(kq.kq_id, msg.arrival,
                                    keywords=" ".join(kq.keywords), k=kq.k)
            handle = svc.submit(kq, msg.arrival, deadline=msg.deadline)
            state = self._report(handle)
            return SubmitReply(update=self._update(), handle=state)
        if isinstance(msg, CancelQuery):
            handle = self._watched.get(msg.kq_id)
            value = bool(handle is not None and not handle.terminal
                         and svc.cancel(handle))
            return BoolReply(update=self._update(), value=value)
        if isinstance(msg, StepTo):
            svc.step(msg.until)
            return Ack(update=self._update())
        if isinstance(msg, DrainShard):
            svc.drain()
            return Ack(update=self._update())
        if isinstance(msg, PumpQuery):
            handle = self._watched.get(msg.kq_id)
            value = bool(handle is not None and not handle.terminal
                         and svc.pump(handle))
            return BoolReply(update=self._update(), value=value)
        if isinstance(msg, CachePut):
            svc.cache.put(normalize_key(msg.keywords, msg.k),
                          decode_answers(msg.answers), now=msg.stored_at)
            return None
        if isinstance(msg, TelemetrySnapshot):
            report = svc.report()  # syncs optimizer telemetry
            return SnapshotReply(
                update=self._update(),
                telemetry=svc.telemetry.state(),
                cache=svc.cache.stats.snapshot(),
                admission=svc.admission.snapshot(),
                engine=metrics_state(report.engine_report.metrics),
                registry=svc.registry.state(),
            )
        if isinstance(msg, TraceDump):
            if msg.kq_id is None:
                lines = self.tracer.jsonl_lines()
            else:
                trace = self.tracer.trace(msg.kq_id)
                lines = [] if trace is None else trace.jsonl_lines()
            return TraceReply(update=self._update(), lines=tuple(lines))
        if isinstance(msg, Shutdown):
            return Ack(update=self._update())
        raise ProtocolError(
            f"worker cannot serve message kind {msg.kind!r}")


class ProcessWorker:
    """One shard in its own OS process, implementing
    :class:`ShardWorker`.

    The front door holds *proxy* :class:`QueryHandle` objects; the
    real handles live in the worker.  Every reply's piggy-backed
    :class:`~repro.service.protocol.WorkerUpdate` advances the fleet
    clock and replays the worker's handle-state events onto the
    proxies, so harvest, answers-so-far and in-flight leadership need
    no polling.  DONE-via-engine events
    trigger ``on_completion`` (the front door's authoritative cache
    write plus mirroring to sibling workers).

    Crash handling: any pipe failure or process death fails the
    shard's non-terminal proxies with a ``FAILED`` disposition, counts
    each in the front door's telemetry, closes its trace in the front
    door's tracer, and (when ``restart`` is on) respawns the worker
    before raising :class:`WorkerCrashed` to the interrupted caller.
    """

    def __init__(self, shard: int, spec: WorkerSpec, *, clock: Clock,
                 front_telemetry: Telemetry,
                 front_tracer: Tracer | NullTracer,
                 on_completion: Callable[
                     ["ProcessWorker", CacheKey, list[RankedAnswer],
                      float], None] | None = None,
                 restart: bool = True) -> None:
        self.shard = shard
        self._spec = spec
        self._clock = clock
        self._front_telemetry = front_telemetry
        self._front_tracer = front_tracer
        self._on_completion = on_completion
        self._restart = restart
        self._ctx = mp.get_context("spawn")
        self._config = spec.execution_config()
        #: Proxies of this shard's non-terminal queries; each leaves
        #: with its terminal event (or the crash that fails it).
        self._handles: dict[str, QueryHandle] = {}
        #: Each non-terminal proxy's answers emitted so far.
        self._so_far: dict[str, list[RankedAnswer]] = {}
        self._puts: deque[CachePut] = deque()
        self._in_flight = 0
        self._deferred = 0
        self._pending: type | None = None
        #: Snapshots retained from crashed incarnations, so a respawn
        #: does not erase the fleet's history (best effort: only as
        #: fresh as the last snapshot taken before the crash).
        self._retained: list[SnapshotReply] = []
        self._last_snapshot: SnapshotReply | None = None
        self._alive = False
        self._spawn()

    # -- process lifecycle ---------------------------------------------------

    def _spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(target=_worker_main,
                                 args=(child_conn, self._spec.to_wire()),
                                 daemon=True,
                                 name=f"repro-shard-{self.shard}")
        proc.start()
        child_conn.close()
        self._proc, self._conn = proc, parent_conn
        self._alive = True
        self._pending = None

    @property
    def alive(self) -> bool:
        return self._alive

    def _reap(self, timeout: float) -> None:
        """Close the pipe and collect the process, terminating it if
        it has not exited within ``timeout`` seconds."""
        try:
            self._conn.close()
        except OSError:
            pass
        self._proc.join(timeout=timeout)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=1.0)

    def _crash(self, reason: str) -> None:
        """The shard's process is gone: fail its in-flight queries,
        retain its last snapshot, and respawn when allowed."""
        if not self._alive:
            return
        self._alive = False
        self._pending = None
        self._puts.clear()
        self._reap(timeout=1.0)
        if self._proc.exitcode is not None:
            reason = f"{reason} (exit code {self._proc.exitcode})"
        now = self._clock.now
        for handle in self._handles.values():
            handle.status = QueryStatus.FAILED
            handle.completed_at = now
            handle.reason = f"worker crashed: {reason}"
            if handle.answers is None:
                handle.answers = []
            self._front_telemetry.record_failure(now)
            self._front_tracer.finish_query(handle.kq_id, now, "failed",
                                            reason=handle.reason)
        self._handles.clear()
        self._so_far.clear()
        self._in_flight = 0
        self._deferred = 0
        if self._last_snapshot is not None:
            self._retained.append(self._last_snapshot)
            self._last_snapshot = None
        if self._restart:
            try:
                self._spawn()
            except OSError:
                return
            self._front_telemetry.record_worker_restart()

    # -- wire plumbing -------------------------------------------------------

    def _send_raw(self, msg: Message) -> None:
        if not self._alive:
            raise WorkerCrashed(
                f"shard {self.shard}: worker is not running")
        try:
            self._conn.send_bytes(encode(msg))
        except (BrokenPipeError, OSError) as exc:
            self._crash(f"send failed: {exc}")
            raise WorkerCrashed(
                f"shard {self.shard}: worker pipe broke on send") from exc

    def _recv(self, reply_cls: type) -> Message:
        try:
            while not self._conn.poll(0.05):
                if not self._proc.is_alive() and not self._conn.poll(0.2):
                    self._crash("process died")
                    raise WorkerCrashed(
                        f"shard {self.shard}: worker process died")
            data = self._conn.recv_bytes()
        except (EOFError, OSError) as exc:
            self._crash(f"recv failed: {exc}")
            raise WorkerCrashed(
                f"shard {self.shard}: worker pipe broke on recv") from exc
        reply = decode(data)
        if not isinstance(reply, reply_cls):
            self._crash(f"out-of-protocol reply {reply.kind!r}")
            raise WorkerCrashed(
                f"shard {self.shard}: expected {reply_cls.__name__}, "
                f"got {reply.kind}")
        self._apply_update(reply.update)
        return reply

    def _send(self, msg: Message) -> None:
        if self._pending is not None:
            raise ExecutionError(
                f"shard {self.shard}: a split-phase reply is pending")
        self._flush_puts()
        self._send_raw(msg)

    def _request(self, msg: Message, reply_cls: type) -> Message:
        self._send(msg)
        return self._recv(reply_cls)

    def _ask(self, msg: Message, reply_cls: type) -> Message | None:
        """:meth:`_request`, with a crash (already handled: queries
        failed, worker respawned) reported as ``None``."""
        try:
            return self._request(msg, reply_cls)
        except WorkerCrashed:
            return None

    def _flush_puts(self) -> None:
        while self._puts:
            self._send_raw(self._puts.popleft())

    def _apply_update(self, update: WorkerUpdate) -> None:
        self._clock.advance_to(update.now)
        self._in_flight = update.in_flight
        self._deferred = update.deferred
        for event in update.events:
            self._apply_event(event)

    def _apply_event(self, event: HandleState) -> None:
        proxy = self._handles.get(event.kq_id)
        if proxy is None:
            return
        proxy.status = QueryStatus(event.status)
        proxy.via = event.via
        proxy.uq_id = event.uq_id
        proxy.completed_at = event.completed_at
        proxy.reason = event.reason
        if event.deadline is not None:
            proxy.deadline = event.deadline
        if event.answers is not None:
            proxy.answers = decode_answers(event.answers)
        if event.emitted:
            self._so_far.setdefault(event.kq_id, []).extend(
                decode_answers(event.emitted))
        if proxy.terminal:
            del self._handles[event.kq_id]
            self._so_far.pop(event.kq_id, None)
        if (proxy.status is QueryStatus.DONE and event.via == "engine"
                and proxy.answers is not None
                and self._on_completion is not None):
            self._on_completion(
                self, normalize_key(proxy.keywords, proxy.k),
                list(proxy.answers),
                event.completed_at if event.completed_at is not None
                else self._clock.now)

    # -- the query surface ---------------------------------------------------

    def submit(self, kq: KeywordQuery, arrival: float, *,
               deadline: float | None = None, uq=None) -> QueryHandle:
        # ``uq`` (a front-door pre-expansion) never crosses the wire:
        # the worker re-expands deterministically from the keywords.
        reply = self._request(
            SubmitQuery(now=arrival, kq_id=kq.kq_id,
                        keywords=tuple(kq.keywords), k=kq.k,
                        arrival=arrival, user=kq.user, deadline=deadline),
            SubmitReply)
        proxy = QueryHandle(kq_id=kq.kq_id, keywords=tuple(kq.keywords),
                            k=kq.k, arrival=reply.handle.arrival)
        self._handles[kq.kq_id] = proxy
        self._apply_event(reply.handle)
        return proxy

    def cancel(self, handle: QueryHandle) -> bool:
        reply = self._ask(
            CancelQuery(now=self._clock.now, kq_id=handle.kq_id), BoolReply)
        return reply is not None and reply.value

    def answers_so_far(self, handle: QueryHandle) -> list[RankedAnswer]:
        if handle.answers is not None:
            return list(handle.answers)
        return list(self._so_far.get(handle.kq_id, ()))

    def pump(self, handle: QueryHandle) -> bool:
        reply = self._ask(
            PumpQuery(now=self._clock.now, kq_id=handle.kq_id), BoolReply)
        return reply is not None and reply.value

    def inflight_handle(self, key: CacheKey) -> QueryHandle | None:
        """An in-flight proxy with cache key ``key``, or ``None``.  The
        shard has a live leader for a key exactly when some handle with
        that key is in flight there (a leader, a promoted follower, or
        a follower, which ends with the execution), and the proxies
        mirror the shard's states as of the last reply."""
        return next((proxy for proxy in self._handles.values()
                     if proxy.status is QueryStatus.IN_FLIGHT
                     and normalize_key(proxy.keywords, proxy.k) == key),
                    None)

    # -- split-phase progress ------------------------------------------------

    def start_step(self, until: float) -> None:
        self._send(StepTo(now=until, until=until))
        self._pending = Ack

    def finish_step(self) -> None:
        if self._pending is None:
            return
        reply_cls, self._pending = self._pending, None
        self._recv(reply_cls)

    def start_drain(self) -> None:
        self._send(DrainShard(now=self._clock.now))
        self._pending = Ack

    finish_drain = finish_step

    @property
    def in_flight_count(self) -> int:
        return self._in_flight

    @property
    def deferred_count(self) -> int:
        return self._deferred

    def enqueue_cache_put(self, key: CacheKey,
                          answers: list[RankedAnswer],
                          stored_at: float) -> None:
        """Queue one authoritative-cache insertion for mirroring; the
        queue goes down the pipe one-way ahead of this worker's next
        request (never while a split-phase reply is outstanding)."""
        if not self._alive:
            return
        self._puts.append(CachePut(
            now=stored_at, keywords=tuple(sorted(key[0])), k=key[1],
            answers=encode_answers(answers), stored_at=stored_at))

    # -- observability -------------------------------------------------------

    def _snapshot(self) -> SnapshotReply | None:
        if not self._alive:
            return None
        reply = self._ask(
            TelemetrySnapshot(now=self._clock.now), SnapshotReply)
        if reply is not None:
            self._last_snapshot = reply
        return reply

    def _snapshots(self) -> list[SnapshotReply]:
        """One snapshot per incarnation of this shard's process: those
        retained from crashed (or closed) ones, then the live one's."""
        snapshot = self._snapshot()
        return self._retained + ([snapshot] if snapshot is not None else [])

    def report(self) -> ServiceReport:
        states = self._snapshots()
        metrics = Metrics()
        for state in states:
            metrics.merge_from(metrics_from_state(state.engine))
        cache_stats = _sum_stats([s.cache for s in states])
        lookups = cache_stats.get("hits", 0.0) + cache_stats.get(
            "misses", 0.0)
        cache_stats["hit_rate"] = (
            cache_stats.get("hits", 0.0) / lookups if lookups else 0.0)
        return ServiceReport(
            telemetry=Telemetry.merged(
                Telemetry.from_state(s.telemetry) for s in states),
            cache_stats=cache_stats,
            admission_stats=_sum_stats([s.admission for s in states]),
            engine_report=EngineReport(config=self._config,
                                       metrics=metrics),
        )

    def registry_view(self) -> MetricsRegistry:
        return MetricsRegistry.merged(
            (MetricsRegistry.from_state(s.registry), {})
            for s in self._snapshots())

    def trace_lines(self, kq_id: str | None = None) -> tuple[str, ...]:
        if not self._alive:
            return ()
        reply = self._ask(
            TraceDump(now=self._clock.now, kq_id=kq_id), TraceReply)
        return () if reply is None else tuple(reply.lines)

    def close(self) -> None:
        if self._alive:
            # Retain a final snapshot: report()/registry_view() keep
            # working after the fleet shuts down (the CLI writes its
            # metrics export post-close).
            snapshot = self._snapshot()
            if snapshot is not None:
                self._retained.append(snapshot)
                self._last_snapshot = None
            self._ask(Shutdown(now=self._clock.now), Ack)
        self._alive = False
        self._reap(timeout=2.0)


def _sum_stats(parts: list[dict]) -> dict[str, float]:
    out: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, (int, float)):
                out[key] = out.get(key, 0.0) + float(value)
    return out
