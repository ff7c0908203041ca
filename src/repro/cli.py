"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``search <keywords...>`` -- run one keyword query over the Figure 1
  federation and print the ranked answers;
* ``experiment <name>`` -- run one experiment driver (``table4``,
  ``figure7`` .. ``figure12``, ``ablations``) at quick or paper scale;
* ``workload`` -- execute the full synthetic workload under a chosen
  sharing mode and print the per-query report;
* ``serve`` -- run the online query service under an open-loop
  Poisson/Zipf load and print tail latencies, throughput, and the
  answer-cache hit rate; ``--trace-dir`` / ``--metrics-out`` export
  per-query span trees (JSONL) and the metrics registry (Prometheus
  text or JSONL).  With ``--http`` the service listens for real
  clients instead of replaying a load: ``repro serve --http
  [--host H] [--port P] [--clock wall|virtual]`` starts the asyncio
  HTTP/SSE front end (``POST /query``, ``GET /query/<id>/events``
  streams answers as Server-Sent Events, ``POST /query/<id>/cancel``,
  ``/healthz``, ``/metrics``; ``POST /admin/shutdown`` stops it and
  flushes the trace/metrics artifacts).  The wall clock is the
  ``--http`` default -- deadlines and batch windows run on real time,
  driven by a ``--tick``-second housekeeping loop; ``--clock
  virtual`` serves deterministically for differential testing;
* ``explain <keywords...>`` -- trace one query end to end and print
  its span tree with a per-stage virtual/wall breakdown;
* ``lint [paths...]`` -- run the AST-based invariant checker
  (clock/rng discipline, wire hygiene, determinism hazards,
  observability drift) over the tree; exit 0 clean, 1 on violations.
"""

from __future__ import annotations

import argparse
import sys

from repro.common.config import ExecutionConfig, SharingMode

EXPERIMENTS = (
    "table4", "figure7", "figure8", "figure9", "figure10", "figure11",
    "figure12", "ablations",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'Sharing Work in Keyword Search "
                     "over Databases' (SIGMOD 2011)"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    search = sub.add_parser(
        "search", help="keyword search over the Figure 1 federation")
    search.add_argument("keywords", nargs="+",
                        help="keywords (quote multi-word phrases)")
    search.add_argument("-k", type=int, default=10, help="top-k (default 10)")
    search.add_argument("--mode", default="ATC-FULL",
                        choices=[str(m) for m in SharingMode])

    experiment = sub.add_parser(
        "experiment", help="run one paper experiment")
    experiment.add_argument("name", choices=EXPERIMENTS)
    experiment.add_argument("--scale", default="quick",
                            choices=("quick", "paper"))

    workload = sub.add_parser(
        "workload", help="run the 15-query synthetic workload")
    workload.add_argument("--mode", default="ATC-CL",
                          choices=[str(m) for m in SharingMode])

    serve = sub.add_parser(
        "serve",
        help="run the online service under open-loop Poisson/Zipf load")
    serve.add_argument("--queries", type=int, default=200,
                       help="arrivals to generate (default 200)")
    serve.add_argument("--mode", default="ATC-FULL",
                       choices=[str(m) for m in SharingMode])
    serve.add_argument("--corpus", default="figure1",
                       choices=("figure1", "gus"),
                       help="federation to serve (default figure1)")
    serve.add_argument("--rate", type=float, default=2.0,
                       help="mean arrival rate, queries/virtual s (default 2)")
    serve.add_argument("-k", type=int, default=10, help="top-k (default 10)")
    serve.add_argument("--templates", type=int, default=12,
                       help="distinct query templates (default 12)")
    serve.add_argument("--theta", type=float, default=1.0,
                       help="Zipf skew of template popularity (default 1.0)")
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--batch-window", type=float, default=2.0,
                       help="batcher collection window, virtual s (default 2)")
    serve.add_argument("--cache-ttl", type=float, default=300.0,
                       help="answer-cache TTL, virtual s (default 300)")
    serve.add_argument("--max-in-flight", type=int, default=64,
                       help="admission budget on concurrent queries "
                            "(default 64)")
    serve.add_argument("--policy", default="reject",
                       choices=("reject", "defer"),
                       help="what to do over budget (default reject)")
    serve.add_argument("--deadline", type=float, default=None,
                       help="per-query deadline, virtual seconds after "
                            "arrival; overdue queries are retired as "
                            "expired with their answers-so-far "
                            "(default: none)")
    serve.add_argument("--shards", type=int, default=1,
                       help="engine workers behind the router; >1 serves "
                            "through the sharded tier (default 1)")
    serve.add_argument("--workers", default="inproc",
                       choices=["inproc", "process"],
                       help="shard worker transport when --shards > 1: "
                            "'inproc' runs every worker in this process "
                            "(deterministic oracle), 'process' spawns one "
                            "OS process per shard for true parallelism "
                            "(default inproc)")
    serve.add_argument("--routing", default="cluster",
                       choices=("roundrobin", "hash", "cluster"),
                       help="shard routing policy when --shards > 1 "
                            "(default cluster-affinity)")
    serve.add_argument("--cluster-jaccard", type=float, default=0.7,
                       help="Jaccard threshold for cluster formation "
                            "(ATC-CL graphs and the cluster router); "
                            "looser thresholds merge everything into one "
                            "over-shared cluster on small corpora "
                            "(default 0.7)")
    serve.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="record a span tree per query and write them "
                            "as JSONL under DIR after the run (tracing is "
                            "off without this flag)")
    serve.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="export the metrics registry after the run: "
                            "Prometheus text when FILE ends in .prom/.txt, "
                            "JSONL otherwise")
    serve.add_argument("--http", action="store_true",
                       help="serve real clients over HTTP/SSE instead of "
                            "replaying a generated load (POST /query, "
                            "GET /query/<id>/events, POST /admin/shutdown "
                            "to stop)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="HTTP bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8028,
                       help="HTTP port; 0 picks an ephemeral one "
                            "(default 8028)")
    serve.add_argument("--clock", default=None,
                       choices=("virtual", "wall"),
                       help="time source: wall (real time; the --http "
                            "default) or virtual (deterministic; the "
                            "load-replay default)")
    serve.add_argument("--tick", type=float, default=0.05,
                       help="wall-mode housekeeping period in real "
                            "seconds: batch windows and deadlines are "
                            "driven this often with no client attached "
                            "(default 0.05; ignored on the virtual clock)")

    explain = sub.add_parser(
        "explain",
        help="trace one keyword query end to end and print its span "
             "tree with per-stage virtual/wall timings")
    explain.add_argument("keywords", nargs="+",
                         help="keywords (quote multi-word phrases)")
    explain.add_argument("-k", type=int, default=10,
                         help="top-k (default 10)")
    explain.add_argument("--mode", default="ATC-FULL",
                         choices=[str(m) for m in SharingMode])
    explain.add_argument("--trace-dir", default=None, metavar="DIR",
                         help="also dump the trace as JSONL under DIR")

    from repro.lint.cli import add_lint_arguments
    lint = sub.add_parser(
        "lint",
        help="check the determinism/clock/wire/observability contracts "
             "(AST-based; see --list-rules)")
    add_lint_arguments(lint)
    return parser


def _mode_from_name(name: str) -> SharingMode:
    for mode in SharingMode:
        if str(mode) == name:
            return mode
    raise ValueError(f"unknown mode {name!r}")


def cmd_search(args: argparse.Namespace) -> int:
    from repro.atc.engine import QSystemEngine
    from repro.common.errors import QueryError
    from repro.data.figure1 import figure1_federation
    from repro.keyword.queries import KeywordQuery

    federation = figure1_federation()
    config = ExecutionConfig(mode=_mode_from_name(args.mode), k=args.k)
    engine = QSystemEngine(federation, config)
    try:
        uq = engine.submit(KeywordQuery("Q", tuple(args.keywords), k=args.k))
    except QueryError:
        print(f"no results: no relation matches {args.keywords}")
        return 0
    if not uq.cqs:
        print(f"no results: no candidate network connects {args.keywords}")
        return 0
    print(f"{len(uq.cqs)} candidate networks; executing...")
    report = engine.run()
    answers = report.answers.get("Q", [])
    if not answers:
        print("no results: every candidate network came up empty")
        return 0
    for rank, answer in enumerate(answers, start=1):
        rows = ", ".join(
            f"{rel}#{tid}" for _a, rel, tid in sorted(answer.provenance))
        print(f"{rank:3d}. {answer.score:.4f}  {answer.cq_id}  [{rows}]")
    record = report.metrics.uq_records["Q"]
    print(f"({record.cqs_executed}/{record.cqs_total} CQs executed, "
          f"{report.metrics.total_input_tuples} input tuples, "
          f"{record.latency:.2f} virtual s)")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    from repro.experiments.harness import paper_scale, quick_scale

    module = importlib.import_module(f"repro.experiments.{args.name}")
    scale = quick_scale() if args.scale == "quick" else paper_scale()
    result = module.run(scale)
    print(result.table().render())
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    from repro.experiments.harness import (
        quick_scale,
        run_workload,
        synthetic_bundle,
    )

    scale = quick_scale()
    bundle = synthetic_bundle(scale, instance=0)
    mode = _mode_from_name(args.mode)
    report = run_workload(bundle, scale.with_mode(mode))
    print(f"mode {mode}: {len(report.answers)} user queries")
    for uq_id, seconds in report.processing_times().items():
        record = report.metrics.uq_records[uq_id]
        print(f"  {uq_id:6s} {seconds:8.3f} virtual s "
              f"({record.cqs_executed} CQs, "
              f"{record.results_returned} answers)")
    metrics = report.metrics
    print(f"work: {metrics.stream_tuples_read} stream reads + "
          f"{metrics.probes_performed} probes "
          f"({metrics.probe_cache_hits} cached)")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.common.clock import VirtualClock, WallClock
    from repro.data.figure1 import figure1_federation
    from repro.data.gus import GUSConfig, gus_federation
    from repro.service.loadgen import LoadConfig, generate_load
    from repro.service.shard import ServiceConfig
    from repro.service.sharding import ShardedQService

    if args.corpus == "gus":
        gus_config = GUSConfig(n_hubs=8, links_per_extra_hub=2,
                               synonym_every=3, satellites_per_hub=1,
                               n_sites=4, min_rows=80, max_rows=260,
                               domain_factor=0.45, seed=args.seed)
        federation = gus_federation(gus_config)
    else:
        gus_config = None
        federation = figure1_federation()
    load = [] if args.http else generate_load(federation, LoadConfig(
        n_queries=args.queries, rate_qps=args.rate, k=args.k,
        n_templates=args.templates, template_theta=args.theta,
        seed=args.seed,
    ))
    config = ExecutionConfig(mode=_mode_from_name(args.mode), k=args.k,
                             batch_window=args.batch_window, seed=args.seed,
                             cluster_jaccard=args.cluster_jaccard)
    if args.deadline is not None and args.deadline <= 0:
        raise ValueError(f"--deadline must be positive, got {args.deadline}")
    service_config = ServiceConfig(
        cache_ttl=args.cache_ttl,
        max_in_flight=args.max_in_flight,
        admission_policy=args.policy,
        default_deadline=args.deadline,
    )
    if args.shards < 1:
        raise ValueError(f"--shards must be positive, got {args.shards}")
    tracer = None
    if args.trace_dir is not None:
        from repro.obs.trace import Tracer
        tracer = Tracer()
    clock_mode = args.clock or ("wall" if args.http else "virtual")
    clock = WallClock() if clock_mode == "wall" else VirtualClock()
    if args.workers == "process" and args.shards < 2:
        raise ValueError("--workers process needs --shards > 1 "
                         "(one process per shard)")
    worker_spec = None
    if args.workers == "process":
        from repro.service.workers import WorkerSpec
        worker_spec = (WorkerSpec.gus(config, gus_config)
                       if args.corpus == "gus"
                       else WorkerSpec.figure1(config))
    # One front door for every topology: one shard is no routing.
    service = ShardedQService(federation, config, n_shards=args.shards,
                              routing=args.routing,
                              service=service_config, tracer=tracer,
                              clock=clock, workers=args.workers,
                              worker_spec=worker_spec)
    fleet_note = ""
    if args.shards > 1:
        fleet_note = (f", {args.shards} shards via {args.routing}"
                      + (f", {args.workers} workers"
                         if args.workers != "inproc" else ""))
    if args.http:
        _serve_http(args, service, clock_mode, fleet_note)
    else:
        print(f"serving {len(load)} arrivals at ~{args.rate:g} q/s "
              f"({args.templates} templates, mode {args.mode}, "
              f"corpus {args.corpus}{fleet_note})...")
        report = service.run(load)
        print(report.render())
    # Shut the worker fleet down before exporting: process workers
    # ship their trace spans and final metric snapshots back at close.
    service.close()
    if tracer is not None:
        from repro.obs.export import write_trace
        path = write_trace(tracer, args.trace_dir)
        print(f"traces    : {len(tracer.traces())} queries -> {path}")
    if args.metrics_out is not None:
        from repro.obs.export import write_metrics
        fmt = write_metrics(service.metrics_registry(), args.metrics_out)
        print(f"metrics   : {fmt} -> {args.metrics_out}")
    return 0


def _serve_http(args: argparse.Namespace, service, clock_mode: str,
                fleet_note: str) -> None:
    """Run the HTTP/SSE front end until shutdown (POST /admin/shutdown
    or Ctrl-C); the caller then writes the trace/metrics artifacts."""
    import asyncio

    from repro.service.http import QueryServiceHTTP

    tick = args.tick if clock_mode == "wall" else None

    async def _run() -> None:
        server = QueryServiceHTTP(service, host=args.host, port=args.port,
                                  tick=tick)
        await server.start()
        print(f"listening on http://{args.host}:{server.port} "
              f"(mode {args.mode}, corpus {args.corpus}, "
              f"{clock_mode} clock{fleet_note})", flush=True)
        try:
            await server.wait_closed()
        finally:
            await server.aclose()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    print(service.report().render())


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.data.figure1 import figure1_federation
    from repro.keyword.queries import KeywordQuery
    from repro.obs.trace import Tracer
    from repro.service.server import QService

    federation = figure1_federation()
    config = ExecutionConfig(mode=_mode_from_name(args.mode), k=args.k)
    tracer = Tracer()
    service = QService(federation, config, tracer=tracer)
    handle = service.submit(
        KeywordQuery("Q", tuple(args.keywords), k=args.k))
    service.drain()
    answers = handle.answers or []
    if answers:
        for rank, answer in enumerate(answers, start=1):
            rows = ", ".join(
                f"{rel}#{tid}" for _a, rel, tid in sorted(answer.provenance))
            print(f"{rank:3d}. {answer.score:.4f}  {answer.cq_id}  [{rows}]")
    else:
        note = f" ({handle.reason})" if handle.reason else ""
        print(f"no results{note}")
    trace = handle.trace()
    if trace is None:
        print("no trace recorded")
        return 0
    print()
    print(trace.render())
    # Per-stage rollup: how the query's end-to-end virtual latency and
    # the process's wall time split across the pipeline stages.
    print()
    print("stage breakdown (top-level spans):")
    totals: dict[str, tuple[float, float]] = {}
    for span in trace.root.children:
        dv, dw = totals.get(span.name, (0.0, 0.0))
        totals[span.name] = (dv + (span.v_duration or 0.0),
                             dw + (span.w_duration or 0.0))
    for name, (dv, dw) in sorted(totals.items(),
                                 key=lambda kv: -kv[1][0]):
        print(f"  {name:<24} {dv:8.3f}s virtual  {dw * 1e3:8.3f}ms wall")
    if args.trace_dir is not None:
        from repro.obs.export import write_trace
        path = write_trace(tracer, args.trace_dir)
        print(f"\ntrace written to {path}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run
    from repro.lint.framework import LintError

    try:
        return run(args)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "search": cmd_search,
        "experiment": cmd_experiment,
        "workload": cmd_workload,
        "serve": cmd_serve,
        "explain": cmd_explain,
        "lint": cmd_lint,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        # Config validation (k, rates, budgets...) raises ValueError
        # with a self-explanatory message; show it as a CLI error
        # rather than a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
