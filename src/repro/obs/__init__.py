"""Observability: per-query traces, a typed metrics registry, exporters.

This package is the single substrate every serving-layer number flows
through: the :class:`~repro.obs.trace.Tracer` records one span tree per
query (admission, cache lookup, coalescing, batch window, optimizer,
execution slices, first emission, harvest, terminal
disposition -- on both the virtual and wall clocks), and the
:class:`~repro.obs.instruments.MetricsRegistry` owns the typed
Counter/Gauge/Histogram instruments that the answer cache, admission
controller, batcher, state manager, plan repository, and rank-merge
publish.  ``Telemetry``'s rendered operator summary is *derived from*
registry-backed instruments; exporters emit Prometheus text or JSONL.

Stable metric-name contract
===========================

Instrument names follow ``repro_<component>_<quantity>[_unit]_total``
(Prometheus conventions: ``_total`` for counters, ``_seconds`` /
``_tuples`` / ``_queries`` units spelled out, gauges bare).  The
component prefixes are stable across releases:

``repro_service_*``
    The serving tier's per-query ledger (submitted, completed,
    cache-served, coalesced, rejected, deferred, cancelled, expired,
    empty, failed, worker restarts) plus the ``latency`` / ``ttfa``
    virtual-seconds histograms.
``repro_answer_cache_*``
    Result-cache hits, misses, insertions, evictions, expirations,
    overwrites, and the resident-entry gauge.
``repro_admission_*``
    First-decision counters: accepted, rejected, deferred.
``repro_batcher_*``
    Pending-queries gauge and batches-closed counter.
``repro_engine_*``
    Execution work: stream reads (labelled ``source=...``), probes,
    probe-cache hits, join probes, inserts, reused tuples (state
    replayed free to a query that did not pay for it), recovery
    queries, and the stream/random-access/join time totals.
``repro_rankmerge_*``
    Answers emitted across every rank-merge.
``repro_state_*``
    State-manager eviction counter and stored-tuples gauge.
``repro_plan_repository_*``
    Keyword-expansion interning hits and misses, labelled
    ``layer=expansion``.
``repro_optimizer_*``
    Invocations, measured wall seconds, plans explored.
``repro_router_*``
    Front door over two or more shards only: routed (``shard=...``),
    spill-overs, front-door cache hits, affinity overrides.
``repro_worker_*``
    Process-worker fleets only, published by the front door: round
    trips (requests answered, ``shard=...``) and protocol frame bytes
    (``shard=...``, ``direction=sent|received`` as the front door sees
    them; one-way cache mirrors count as sent).

Labels: ``mode`` carries the sharing configuration on engine-side
instruments; ``shard`` is stamped by the fleet merge
(:meth:`MetricsRegistry.merged`); ``source`` / ``layer`` as above.
A respawned process shard's incarnations merge unlabelled: counters
and histograms sum, gauges come from the live one only.
Label keys are reserved, never repurposed; a tenant label can be added
without breaking any existing consumer.
"""

from repro.obs.instruments import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.records import Metrics, OptimizerRecord, UQRecord
from repro.obs.trace import (
    NO_TRACER,
    NullTracer,
    QueryTrace,
    Span,
    Tracer,
)

__all__ = [
    "NO_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "MetricsRegistry",
    "NullTracer",
    "OptimizerRecord",
    "QueryTrace",
    "Span",
    "Tracer",
    "UQRecord",
]
