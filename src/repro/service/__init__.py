"""The online serving layer: continuous admission over the Q System.

This package turns the batch reproduction into the always-on middleware
the paper describes, behind one client API and one serving path.
``submit`` returns a live :class:`QueryHandle`
(:mod:`~repro.service.handle`) whose ``results()`` iterator streams
ranked answers as the engine emits them; handles can be cancelled, and
carry optional per-query deadlines; ``drain()``/``report()`` return one
:class:`ServiceReport`.

Two roles.  The *front door*, :class:`ShardedQService`
(:mod:`~repro.service.sharding`), is what clients talk to: it owns the
answer cache for the workload's Zipf head (:mod:`~repro.service.cache`),
the handle table and the trace roots, and -- with more than one shard
-- routes each miss (:mod:`~repro.service.routing`: round-robin,
keyword-hash, or cluster-affinity placement that keeps queries over
overlapping relations on the same shard).  The single-node
:class:`QService` is that front door over one shard.  A *shard*
(:mod:`~repro.service.shard`) is one engine with admission control for
overload (:mod:`~repro.service.admission`), coalescing, deferral and
deadlines; it runs in-process, or in its own process behind a
:class:`ProcessWorker` (:mod:`~repro.service.workers`).
Tail-latency/TTFA/throughput telemetry
(:mod:`~repro.service.telemetry`) merges over both roles, and an
open-loop Poisson/Zipf load generator with a client-abandonment model
drives heavy-traffic scenarios (:mod:`~repro.service.loadgen`).

Time is pluggable (:mod:`repro.common.clock`): every service runs on a
deterministic ``VirtualClock`` by default and on a ``WallClock`` for
real serving, and the HTTP/SSE front end
(:mod:`~repro.service.http`) puts the whole protocol on the wire --
``repro serve --http`` -- streaming each handle's answers as
Server-Sent Events.
"""

from repro.service.admission import AdmissionController, AdmissionDecision
from repro.service.cache import (
    CacheStats,
    PurgeCadence,
    ResultCache,
    normalize_key,
)
from repro.service.http import (
    HttpQueryClient,
    HttpServerThread,
    QueryServiceHTTP,
    answer_payload,
    answers_digest,
    handles_digest,
)
from repro.service.handle import QueryHandle, QueryStatus
from repro.service.loadgen import (
    LoadConfig,
    generate_abandonments,
    generate_load,
)
from repro.service.reports import ServiceReport
from repro.service.routing import (
    ClusterAffinityRouter,
    KeywordHashRouter,
    RoundRobinRouter,
    RoutingPolicy,
    make_router,
)
from repro.service.protocol import ProtocolError, WIRE_VERSION
from repro.service.server import QService
from repro.service.shard import ServiceConfig, Shard
from repro.service.sharding import RoutingStats, ShardedQService
from repro.service.telemetry import Telemetry, percentile
from repro.service.workers import (
    ProcessWorker,
    ShardWorker,
    WorkerCrashed,
    WorkerSpec,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "CacheStats",
    "ClusterAffinityRouter",
    "HttpQueryClient",
    "HttpServerThread",
    "KeywordHashRouter",
    "LoadConfig",
    "ProcessWorker",
    "ProtocolError",
    "PurgeCadence",
    "QService",
    "QueryServiceHTTP",
    "QueryHandle",
    "QueryStatus",
    "ResultCache",
    "RoundRobinRouter",
    "RoutingPolicy",
    "RoutingStats",
    "ServiceConfig",
    "ServiceReport",
    "Shard",
    "ShardWorker",
    "ShardedQService",
    "Telemetry",
    "WIRE_VERSION",
    "WorkerCrashed",
    "WorkerSpec",
    "answer_payload",
    "answers_digest",
    "generate_abandonments",
    "generate_load",
    "handles_digest",
    "make_router",
    "normalize_key",
    "percentile",
]
