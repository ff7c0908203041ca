"""repro: a reproduction of "Sharing Work in Keyword Search over
Databases" (Jacob & Ives, SIGMOD 2011).

The package implements the Q System's query-processing middleware: a
keyword-search front end over a federation of (simulated) remote
databases, a multi-query optimizer that shares subexpressions within
and across top-k queries, a fully pipelined plan graph of m-joins and
rank-merge operators coordinated by the ATC scheduler, and a query
state manager that grafts, reuses, prunes, and evicts plan state over
time.

Batch quickstart::

    from repro import (
        ExecutionConfig, KeywordQuery, QSystemEngine, SharingMode,
        figure1_federation,
    )

    federation = figure1_federation()
    engine = QSystemEngine(
        federation, ExecutionConfig(mode=SharingMode.ATC_FULL, k=10)
    )
    engine.submit(KeywordQuery("KQ1", ("protein", "plasma membrane"), k=10))
    report = engine.run()
    print(report.answers["KQ1"])

Online service quickstart -- the continuously operating middleware of
Section 2: ``submit`` returns a streaming, cancellable
:class:`QueryHandle`, and the single-node :class:`QService` is the
sharded :class:`ShardedQService` front door over one shard -- one
serving path, one :class:`ServiceReport` (:mod:`repro.service`)::

    from repro import (
        ExecutionConfig, KeywordQuery, LoadConfig, QService, ServiceConfig,
        SharingMode, figure1_federation, generate_load,
    )

    federation = figure1_federation()
    service = QService(
        federation,
        ExecutionConfig(mode=SharingMode.ATC_FULL, k=10, batch_window=2.0),
        ServiceConfig(cache_ttl=300.0, max_in_flight=64),
    )
    # Admit one query along the virtual-time arrival stream; consume
    # its ranked answers progressively as the engine emits them:
    kq = KeywordQuery("Q1", ("protein", "gene"), k=10, arrival=0.0)
    handle = service.submit(kq, deadline=kq.arrival + 30.0)
    for answer in handle.results():          # streams; ends at top-k,
        print(answer)                        # cancel, or deadline
    # Abandon a query the user navigated away from:
    h2 = service.submit(KeywordQuery("Q2", ("gene", "membrane"), k=10,
                                     arrival=1.0))
    h2.cancel()                    # frees its (unshared) plan state
    # ... or serve a whole open-loop Poisson/Zipf stream:
    report = service.run(generate_load(federation,
                                       LoadConfig(n_queries=200)))
    print(report.render())   # p50/p95/p99, TTFA, throughput, hit rates
"""

import importlib

__version__ = "2.0.0"

#: Each public name and the module that defines it.  A name is
#: imported on first access (PEP 562), so ``import repro.service.workers``
#: in a shard's worker process loads the engine, not the web server.
_EXPORTS = {
    name: module for module, names in {
        "repro.atc.engine": ("EngineReport", "QSystemEngine"),
        "repro.common.config": ("DelayModel", "ExecutionConfig",
                                "SharingMode"),
        "repro.data.biodb": ("BioDBConfig", "biodb_federation"),
        "repro.data.database": ("Database", "Federation"),
        "repro.data.figure1": ("figure1_federation", "figure1_schema"),
        "repro.data.gus": ("GUSConfig", "gus_federation"),
        "repro.keyword.queries": ("ConjunctiveQuery", "KeywordQuery",
                                  "UserQuery"),
        "repro.service": ("LoadConfig", "QService", "QueryHandle",
                          "QueryStatus", "ServiceConfig", "ServiceReport",
                          "ShardedQService", "generate_abandonments",
                          "generate_load"),
    }.items() for name in names
}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
