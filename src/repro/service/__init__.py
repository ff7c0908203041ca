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

import importlib

#: Each public name and the module under ``repro.service`` that defines
#: it, imported on first access (PEP 562): a worker process imports
#: :mod:`~repro.service.workers` without the HTTP front end.
_EXPORTS = {
    name: f"repro.service.{module}" for module, names in {
        "admission": ("AdmissionController", "AdmissionDecision"),
        "cache": ("CacheStats", "ResultCache", "normalize_key"),
        "handle": ("QueryHandle", "QueryStatus"),
        "http": ("HttpQueryClient", "HttpServerThread", "QueryServiceHTTP",
                 "answer_payload", "answers_digest", "handles_digest"),
        "loadgen": ("LoadConfig", "generate_abandonments", "generate_load"),
        "protocol": ("ProtocolError", "WIRE_VERSION"),
        "reports": ("ServiceReport",),
        "routing": ("ClusterAffinityRouter", "KeywordHashRouter",
                    "RoundRobinRouter", "RoutingPolicy", "make_router"),
        "server": ("QService",),
        "shard": ("ServiceConfig", "Shard"),
        "sharding": ("RoutingStats", "ShardedQService"),
        "telemetry": ("Telemetry", "percentile"),
        "workers": ("ProcessWorker", "ShardWorker", "WorkerCrashed",
                    "WorkerSpec"),
    }.items() for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
