"""The online serving layer: continuous admission over the Q System.

This package turns the batch reproduction into the always-on middleware
the paper describes, behind one client API
(:mod:`~repro.service.handle`): one typed protocol,
:class:`QueryServiceProtocol`, implemented by the single-node
:class:`QService` and the sharded :class:`ShardedQService` alike, and
one :class:`ServiceReport` from either.
``submit`` returns a live :class:`QueryHandle` whose ``results()``
iterator streams ranked answers as the engine emits them; handles can
be cancelled, and carry optional per-query deadlines.

Behind the protocol sit an answer cache for the workload's Zipf head
(:mod:`~repro.service.cache`), admission control for overload
(:mod:`~repro.service.admission`), tail-latency/TTFA/throughput
telemetry (:mod:`~repro.service.telemetry`), and an open-loop
Poisson/Zipf load generator with a client-abandonment model for
heavy-traffic scenarios (:mod:`~repro.service.loadgen`).

Three serving roles, one implementation each: :class:`QService` is the
engine-side service (standalone, an in-process shard, or the core of a
worker process); :class:`ShardedQService`
(:mod:`~repro.service.sharding`) is the router in front of N of them,
behind one shared answer cache, with pluggable shard routing
(:mod:`~repro.service.routing`): round-robin, keyword-hash, or
cluster-affinity placement that keeps queries over overlapping
relations on the same worker; :class:`ProcessWorker`
(:mod:`~repro.service.workers`) is the pipe to a shard in its own
process.

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
from repro.service.handle import (
    QueryHandle,
    QueryServiceProtocol,
    QueryStatus,
    run_stream,
)
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
from repro.service.server import QService, ServiceConfig
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
    "QueryServiceProtocol",
    "QueryStatus",
    "ResultCache",
    "RoundRobinRouter",
    "RoutingPolicy",
    "RoutingStats",
    "ServiceConfig",
    "ServiceReport",
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
    "run_stream",
]
