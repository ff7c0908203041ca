"""Service benchmark: sustained throughput under open-loop load.

The paper's experiments submit 15 queries and measure per-query times;
a serving layer is sized by what it *sustains*.  This benchmark drives
the online service with a saturating open-loop Poisson/Zipf arrival
stream -- 200 queries at ~60/s over the quick-scale GUS federation,
far above what the engine can absorb in real time, so the arrival
process never waits and the backlog exposes each configuration's true
capacity -- and compares the four sharing modes under the *identical*
arrival sequence.

Expected shape: sharing is capacity.  ATC-FULL (one plan graph shares
subexpressions and retained state across every query) drains the same
stream strictly faster than the no-sharing ATC-CQ baseline, which
re-reads and re-joins what other queries already computed.

The sharded benchmark (``--shards``/``--routing`` pytest options)
compares routing policies over the same saturating stream: placement
that keeps overlapping queries on the same worker (cluster-affinity)
must extract at least the sharing -- fewer input tuples for identical
answers, no less throughput -- of content-blind keyword hashing.

The v2 client API adds two streaming-era measures:

* **TTFA** (time to first answer): a streaming consumer starts reading
  the top-k as the rank-merge emits it, so its first-byte wait must be
  strictly below the completion latency the batch API imposed;
* **abandonment**: with a reneging client population (the load
  generator's abandonment model), cancelled queries release their plan
  share mid-flight -- the engine must do strictly *less* total input
  work than when it carries every abandoned query to completion.
"""

from dataclasses import replace

from repro.common.config import ExecutionConfig, SharingMode
from repro.data.gus import GUSConfig, gus_federation
from repro.data.inverted import InvertedIndex
from repro.experiments.harness import ALL_MODES, SeriesTable
from repro.service import (
    LoadConfig,
    QService,
    ServiceConfig,
    ShardedQService,
    generate_abandonments,
    generate_load,
)

LOAD = LoadConfig(n_queries=200, rate_qps=60.0, k=50, n_templates=16,
                  template_theta=0.9, vocabulary_size=24, seed=7)


def _federation():
    return gus_federation(GUSConfig(
        n_hubs=8, links_per_extra_hub=2, synonym_every=3,
        satellites_per_hub=1, n_sites=4, min_rows=80, max_rows=260,
        domain_factor=0.45, seed=11))


def run_bench():
    federation = _federation()
    index = InvertedIndex(federation)
    load = generate_load(federation, LOAD, index=index)
    reports = {}
    registry_work = {}
    for mode in ALL_MODES:
        # optimizer_time_scale=0 keeps the comparison bit-for-bit
        # deterministic: every other virtual cost is seeded, and real
        # optimizer wall time would let machine load perturb the
        # throughput ordering this benchmark asserts.
        config = ExecutionConfig(mode=mode, k=LOAD.k, batch_window=1.0,
                                 optimizer_time_scale=0.0, seed=11)
        service = QService(federation, config,
                           ServiceConfig(max_in_flight=256), index=index)
        reports[mode] = service.run(load)
        # The work gauge the benchmark compares across modes is read
        # through the metrics registry, so the bench also checks the
        # published view against the engine's own ledger.
        registry = service.metrics_registry()
        registry_work[mode] = int(
            registry.get("repro_engine_stream_tuples_read_total")
            .value(mode=str(mode))
            + registry.get("repro_engine_probes_total")
            .value(mode=str(mode)))
    return reports, registry_work


def test_service_throughput(benchmark, save_result):
    reports, registry_work = benchmark.pedantic(run_bench, rounds=1,
                                                iterations=1)
    for mode, report in reports.items():
        assert registry_work[mode] == \
            report.engine_report.metrics.total_input_tuples, str(mode)

    table = SeriesTable(
        title=f"Sustained service throughput, open-loop load "
              f"({LOAD.n_queries} queries at ~{LOAD.rate_qps:.0f}/s, "
              f"{LOAD.n_templates} Zipf templates)",
        x_label="mode",
        columns=["throughput q/s", "p50 s", "p95 s", "p99 s",
                 "ttfa p50 s", "ttfa p95 s", "cache hit", "input tuples"],
    )
    for mode, report in reports.items():
        tel = report.telemetry
        pcts = tel.latency_percentiles()
        ttfa = tel.ttfa_percentiles()
        table.add_row(
            str(mode), tel.throughput(), pcts["p50"], pcts["p95"],
            pcts["p99"], ttfa["ttfa_p50"], ttfa["ttfa_p95"],
            report.cache_hit_rate,
            float(registry_work[mode]),
        )
    save_result("service", table.render())

    for mode, report in reports.items():
        assert report.telemetry.completed == LOAD.n_queries, str(mode)
        assert all(t.done for t in report.tickets), str(mode)

    tput = {mode: r.telemetry.throughput() for mode, r in reports.items()}
    work = registry_work
    # Sharing is capacity: under the identical arrival stream, the
    # full-sharing configuration sustains strictly more throughput --
    # and consumes strictly fewer input tuples -- than no-sharing.
    assert tput[SharingMode.ATC_FULL] > tput[SharingMode.ATC_CQ]
    assert work[SharingMode.ATC_FULL] < work[SharingMode.ATC_CQ]
    # Streaming pays: a consumer reading answers as they are emitted
    # waits strictly less for its first answer than for the full top-k.
    full = reports[SharingMode.ATC_FULL].telemetry
    assert full.ttfa_percentiles()["ttfa_p50"] < \
        full.latency_percentiles()["p50"]
    assert full.ttfa_percentiles()["ttfa_p95"] < \
        full.latency_percentiles()["p95"]


def _answer_key(answers):
    """One query's ranked answers in scheduling-independent form: the
    ordered score sequence, plus the sorted (score, rows) bag -- rows
    tying exactly at the top-k cutoff score are interchangeable members
    of any valid top-k, so they are excluded from the bag."""
    scores = [round(a.score, 9) for a in answers]
    cutoff = min(scores, default=0.0)
    rows = sorted(
        (round(a.score, 9),
         tuple(sorted((rel, tid) for _al, rel, tid in a.provenance)))
        for a in answers if round(a.score, 9) > cutoff)
    return scores, rows


def run_abandonment_bench():
    """The same saturating ATC-FULL stream with and without a reneging
    client population (30% of clients walk away after an exponential
    patience of mean 2 virtual seconds), under both serving postures:

    * ``shared`` -- answer cache + coalescing on (the production
      default).  Here cancellation is *not* free capacity: killing the
      Zipf head's leading execution also destroys the amortization
      every later repeat would have ridden, so total work barely moves
      (or rises);
    * ``solo`` -- cache and coalescing off, every arrival executes.
      Here an abandoned query is pure waste, and cancelling it
      mid-flight must reclaim input work, strictly.
    """
    federation = _federation()
    index = InvertedIndex(federation)
    abandon = replace(LOAD, abandon_prob=0.3, patience_mean=2.0)
    load = generate_load(federation, abandon, index=index)
    schedule = generate_abandonments(load, abandon)
    postures = {
        "shared": ServiceConfig(max_in_flight=256),
        "solo": ServiceConfig(max_in_flight=256, coalesce=False,
                              cache_ttl=1e-9),
    }
    reports = {}
    for posture, service_config in postures.items():
        for label, cancellations in (("patient", None),
                                     ("reneging", schedule)):
            config = ExecutionConfig(mode=SharingMode.ATC_FULL, k=LOAD.k,
                                     batch_window=1.0,
                                     optimizer_time_scale=0.0, seed=11)
            service = QService(federation, config, service_config,
                               index=index)
            reports[(posture, label)] = service.run(
                load, cancellations=cancellations)
    return reports, schedule


def test_service_abandonment(benchmark, save_result):
    (reports, schedule) = benchmark.pedantic(run_abandonment_bench,
                                             rounds=1, iterations=1)

    table = SeriesTable(
        title=f"Client abandonment, ATC-FULL ({LOAD.n_queries} queries at "
              f"~{LOAD.rate_qps:.0f}/s, 30% renege, mean patience 2s)",
        x_label="posture/clients",
        columns=["completed", "cancelled", "ttfa p50 s", "ttfa p95 s",
                 "input tuples", "tuples/served"],
    )
    for (posture, label), report in reports.items():
        tel = report.telemetry
        ttfa = tel.ttfa_percentiles()
        work = report.engine_report.metrics.total_input_tuples
        table.add_row(
            f"{posture}/{label}", float(tel.completed),
            float(tel.cancelled), ttfa["ttfa_p50"], ttfa["ttfa_p95"],
            float(work), work / max(tel.completed, 1),
        )
    save_result("service_abandonment", table.render())

    for posture in ("shared", "solo"):
        patient = reports[(posture, "patient")]
        reneging = reports[(posture, "reneging")]
        assert patient.telemetry.cancelled == 0, posture
        # The abandonment schedule actually bit: some impatient clients
        # cancelled before their answer (the rest were answered first
        # -- completion wins), and every query resolved exactly once.
        tel = reneging.telemetry
        assert 0 < tel.cancelled <= len(schedule), posture
        assert tel.completed + tel.rejected + tel.cancelled + tel.expired \
            == LOAD.n_queries, posture
        # Surviving queries' answers are untouched by their
        # neighbours' abandonment: every completed query's ranked
        # answers match the patient run's, query by query, in the
        # scheduling-independent form (equal-score ties may legally
        # permute once cancellation perturbs the interleaving).
        patient_answers = {
            t.kq_id: _answer_key(t.answers) for t in patient.tickets
        }
        for t in reneging.tickets:
            if t.done:
                assert _answer_key(t.answers) == \
                    patient_answers[t.kq_id], (posture, t.kq_id)
    # Without reuse tiers an abandoned query is pure waste, and
    # cancelling it mid-flight reclaims input work, strictly.
    assert reports[("solo", "reneging")].engine_report.metrics \
        .total_input_tuples < reports[("solo", "patient")] \
        .engine_report.metrics.total_input_tuples


def run_sharded_bench(n_shards: int, policies: list[str]):
    federation = _federation()
    index = InvertedIndex(federation)
    load = generate_load(federation, LOAD, index=index)
    reports = {}
    for policy in policies:
        # cluster_jaccard=0.7 keeps affinity clusters tight: the GUS
        # templates all overlap somewhat, and a looser threshold
        # re-creates the paper's over-sharing (one giant cluster on one
        # shard).  Only the router reads this knob under ATC-FULL.
        config = ExecutionConfig(mode=SharingMode.ATC_FULL, k=LOAD.k,
                                 batch_window=1.0, optimizer_time_scale=0.0,
                                 seed=11, cluster_jaccard=0.7)
        fleet = ShardedQService(federation, config, n_shards=n_shards,
                                routing=policy,
                                service=ServiceConfig(max_in_flight=256),
                                index=index)
        reports[policy] = fleet.run(load)
    return reports


def test_sharded_routing(benchmark, save_result, bench_shards, bench_routing):
    reports = benchmark.pedantic(run_sharded_bench, rounds=1, iterations=1,
                                 args=(bench_shards, bench_routing))

    table = SeriesTable(
        title=f"Sharded service routing, {bench_shards} shards, ATC-FULL "
              f"({LOAD.n_queries} queries at ~{LOAD.rate_qps:.0f}/s)",
        x_label="routing",
        columns=["throughput q/s", "p95 s", "cache hit", "input tuples",
                 "per-shard load", "spill-overs"],
    )
    for policy, report in reports.items():
        metrics = report.engine_metrics()
        table.add_row(
            policy, report.throughput,
            report.telemetry.latency_percentiles()["p95"],
            report.cache_hit_rate, float(metrics.total_input_tuples),
            "/".join(str(n) for n in report.routing.routed),
            float(report.routing.spillovers),
        )
    save_result("service_sharded", table.render())

    for policy, report in reports.items():
        assert report.telemetry.completed == LOAD.n_queries, policy
        assert all(t.done for t in report.tickets), policy
        # Sharding must be real: more than one worker took traffic.
        if bench_shards > 1:
            assert sum(1 for n in report.routing.routed if n > 0) > 1, policy

    if {"hash", "cluster"} <= set(reports):
        # Affinity placement extracts at least the sharing of
        # content-blind hashing: no less throughput, no more input
        # tuples for the identical answers.
        tput = {p: r.throughput for p, r in reports.items()}
        work = {p: r.engine_metrics().total_input_tuples
                for p, r in reports.items()}
        assert tput["cluster"] >= tput["hash"]
        assert work["cluster"] <= work["hash"]


HTTP_LOAD = replace(LOAD, n_queries=40, k=10, rate_qps=8.0)
HTTP_CLIENTS = 4


def run_http_bench():
    """Closed-loop load over the HTTP/SSE front end on a wall clock.

    Unlike the open-loop benches above (arrivals never wait), this is
    the serving posture's complement: ``HTTP_CLIENTS`` client threads
    each submit a query, stream its SSE answers to the ``end`` event,
    and only then submit their next -- so offered load tracks service
    capacity, and the measured times are *real* seconds across the
    wire, not virtual ones.
    """
    import queue
    import threading
    import time

    from repro.common.clock import WallClock
    from repro.service import HttpQueryClient, HttpServerThread

    federation = _federation()
    index = InvertedIndex(federation)
    load = generate_load(federation, HTTP_LOAD, index=index)

    config = ExecutionConfig(mode=SharingMode.ATC_FULL, k=HTTP_LOAD.k,
                             batch_window=1.0, optimizer_time_scale=0.0,
                             seed=11)
    service = QService(federation, config,
                       ServiceConfig(max_in_flight=256), index=index,
                       clock=WallClock())

    pending: "queue.Queue" = queue.Queue()
    for kq in load:
        pending.put(kq)
    results = []
    results_lock = threading.Lock()

    def client_loop(port):
        client = HttpQueryClient("127.0.0.1", port)
        while True:
            try:
                kq = pending.get_nowait()
            except queue.Empty:
                return
            submitted = time.perf_counter()
            client.submit(kq.keywords, k=kq.k, query_id=kq.kq_id)
            first_answer = None
            answers = []
            end = None
            for event, payload in client.events(kq.kq_id):
                if event == "answer":
                    if first_answer is None:
                        first_answer = time.perf_counter() - submitted
                    answers.append(payload)
                elif event == "end":
                    end = payload
            with results_lock:
                results.append({
                    "kq_id": kq.kq_id,
                    "ttfa": first_answer,
                    "latency": time.perf_counter() - submitted,
                    "answers": answers,
                    "end": end,
                })

    started = time.perf_counter()
    with HttpServerThread(service, tick=0.02) as srv:
        threads = [threading.Thread(target=client_loop, args=(srv.port,))
                   for _ in range(HTTP_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    wall = time.perf_counter() - started

    # The oracle: the identical queries on a virtual clock, in process.
    oracle = QService(federation, config,
                      ServiceConfig(max_in_flight=256), index=index)
    oracle_handles = []
    for kq in load:
        handle = oracle.submit(kq, arrival=kq.arrival)
        list(handle.results())
        oracle_handles.append(handle)
    return load, results, wall, oracle_handles


def test_service_http_closed_loop(benchmark, save_result):
    from repro.service import answers_digest, handles_digest

    load, results, wall, oracle_handles = benchmark.pedantic(
        run_http_bench, rounds=1, iterations=1)

    assert len(results) == HTTP_LOAD.n_queries
    for r in results:
        assert r["end"] is not None, r["kq_id"]
        assert r["end"]["disposition"] == "done", r["kq_id"]
        assert r["ttfa"] is not None, r["kq_id"]
    # The differential digest gate, over real HTTP on a real clock:
    # same answers as the virtual-clock in-process oracle, byte for
    # byte in scheduling-independent form.
    assert all(h.done for h in oracle_handles)
    assert answers_digest({r["kq_id"]: r["answers"] for r in results}) \
        == handles_digest(oracle_handles)

    from repro.service import percentile
    ttfas = [r["ttfa"] for r in results]
    lats = [r["latency"] for r in results]
    throughput = len(results) / wall
    table = SeriesTable(
        title=f"Closed-loop HTTP/SSE serving, wall clock "
              f"({HTTP_LOAD.n_queries} queries, {HTTP_CLIENTS} client "
              f"threads)",
        x_label="measure",
        columns=["throughput q/s", "ttfa p50 s", "ttfa p95 s",
                 "latency p50 s", "latency p95 s"],
    )
    table.add_row("wall-clock", throughput,
                  percentile(ttfas, 50.0), percentile(ttfas, 95.0),
                  percentile(lats, 50.0), percentile(lats, 95.0))
    save_result("service_http", table.render())

    assert throughput > 0.0
    # Streaming pays over the wire too: the first answer of each query
    # arrives no later than its full top-k.
    assert percentile(ttfas, 50.0) <= percentile(lats, 50.0)


def test_service_trace_overhead(save_result, trace_overhead_enabled):
    """Opt-in (``--trace-overhead``): the serving stack's zero-
    overhead-when-off contract on the service-bench federation --
    tracing off must stay within 2% of a build with no tracer plumbing
    at all, with byte-identical answers across all three arms."""
    import time

    import pytest

    from bench_hotpath import (
        answers_digest,
        check_trace_overhead,
        measure_trace_overhead,
        render_trace_overhead,
    )

    if not trace_overhead_enabled:
        pytest.skip("pass --trace-overhead to run the overhead check")
    federation = _federation()
    index = InvertedIndex(federation)
    load_cfg = replace(LOAD, n_queries=60)
    load = generate_load(federation, load_cfg, index=index)

    def run_once(tracer):
        config = ExecutionConfig(mode=SharingMode.ATC_FULL, k=load_cfg.k,
                                 batch_window=1.0,
                                 optimizer_time_scale=0.0, seed=11)
        service = QService(federation, config,
                           ServiceConfig(max_in_flight=256), index=index,
                           tracer=tracer)
        started = time.perf_counter()
        report = service.run(load)
        wall = time.perf_counter() - started
        return wall, answers_digest(report.tickets)

    arms = measure_trace_overhead(run_once)
    save_result("service_trace_overhead", render_trace_overhead(arms))
    failures = check_trace_overhead(arms)
    assert not failures, failures


# -- true parallelism: process-per-shard wall-clock scaling ------------------

#: The scaling stream: enough per-query engine work (k=50 over the
#: quick GUS federation) that compute dominates the wire protocol's
#: per-message cost, few enough queries that the sweep stays in CI
#: budget.
PARALLEL_LOAD = replace(LOAD, n_queries=120)
PARALLEL_SHARDS = (1, 4)


def run_parallel_bench(workers: str, shard_counts=PARALLEL_SHARDS):
    """Identical load through 1..N-shard fleets on one transport,
    measuring *wall* seconds from first submit to drained.  Fleet
    construction (process spawn, federation rebuild, warm-up) is
    excluded: the gate is about steady-state serving, not boot.
    Returns per-shard-count rows plus the answers digest each run
    produced -- the digests must agree before any speedup counts.
    """
    import time as _time

    from repro.data.gus import GUSConfig as _GUSConfig
    from repro.service import WorkerSpec, handles_digest

    gus_config = _GUSConfig(
        n_hubs=8, links_per_extra_hub=2, synonym_every=3,
        satellites_per_hub=1, n_sites=4, min_rows=80, max_rows=260,
        domain_factor=0.45, seed=11)
    federation = _federation()
    index = InvertedIndex(federation)
    load = generate_load(federation, PARALLEL_LOAD, index=index)
    config = ExecutionConfig(mode=SharingMode.ATC_FULL, k=PARALLEL_LOAD.k,
                             batch_window=1.0, optimizer_time_scale=0.0,
                             seed=11)
    rows = {}
    for n_shards in shard_counts:
        spec = WorkerSpec.gus(config, gus_config) \
            if workers == "process" else None
        fleet = ShardedQService(federation, config, n_shards=n_shards,
                                routing="hash",
                                service=ServiceConfig(max_in_flight=256),
                                index=index, workers=workers,
                                worker_spec=spec)
        try:
            started = _time.perf_counter()
            handles = [fleet.submit(kq) for kq in load]
            fleet.drain()
            wall = _time.perf_counter() - started
        finally:
            fleet.close()
        assert all(h.status.value == "done" for h in handles), \
            (workers, n_shards)
        rows[n_shards] = {
            "workers": workers,
            "shards": n_shards,
            "wall_s": wall,
            "throughput_q_per_wall_s": len(load) / wall,
            "digest": handles_digest(handles),
        }
    return rows


def test_parallel_scaling(benchmark, save_result, results_dir,
                          bench_workers):
    """The perf gate of the process-per-shard transport.

    Always: every shard count serves byte-identical answers (the
    differential oracle, on whichever transport was selected).  With
    ``--workers process`` on a host with >= 4 cores: the 4-shard fleet
    must clear >= 1.5x the single-shard wall-clock throughput --
    genuine parallelism, not protocol overhead.  On smaller hosts (or
    inproc) the sweep still runs and records its numbers, but the
    speedup is reported, not asserted: one core cannot exhibit it.
    """
    import json as _json
    import os as _os

    rows = benchmark.pedantic(run_parallel_bench, rounds=1, iterations=1,
                              args=(bench_workers,))

    digests = {r["digest"] for r in rows.values()}
    assert len(digests) == 1, \
        f"shard counts disagree on answers: {sorted(digests)}"

    base = rows[min(rows)]
    wide = rows[max(rows)]
    speedup = wide["throughput_q_per_wall_s"] / \
        base["throughput_q_per_wall_s"]
    cores = _os.cpu_count() or 1

    table = SeriesTable(
        title=f"Parallel scaling, {bench_workers} workers, ATC-FULL "
              f"({PARALLEL_LOAD.n_queries} queries, {cores} host cores)",
        x_label="shards",
        columns=["wall s", "throughput q/wall-s", "speedup vs 1"],
    )
    for n_shards, row in sorted(rows.items()):
        table.add_row(
            str(n_shards), row["wall_s"], row["throughput_q_per_wall_s"],
            row["throughput_q_per_wall_s"]
            / base["throughput_q_per_wall_s"],
        )
    save_result("service_parallel", table.render())

    payload = {
        "workers": bench_workers,
        "host_cores": cores,
        "load": {"n_queries": PARALLEL_LOAD.n_queries,
                 "k": PARALLEL_LOAD.k},
        "rows": [rows[n] for n in sorted(rows)],
        "speedup": speedup,
        "gated": bench_workers == "process" and cores >= 4,
    }
    (results_dir / "BENCH_service_parallel.json").write_text(
        _json.dumps(payload, indent=2, sort_keys=True) + "\n")

    if bench_workers == "process" and cores >= 4:
        assert speedup >= 1.5, (
            f"4 process shards reached only {speedup:.2f}x the "
            f"single-shard throughput on {cores} cores (gate: 1.5x)")
