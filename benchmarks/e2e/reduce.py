"""From raw passes to named metrics.

The host's CPU speed wanders by +-8 % at 0.2 s granularity, so no
single sub-second measurement repeats within a tenth.  Every quantity
is therefore reduced across the passes by the *median* first: a per-op
latency becomes the median of that op's samples (one per pass, the op
list being identical), and only then are percentiles taken over ops;
rates, CPU, RSS and set-up become the median of the per-pass values.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import statistics
import time
from collections.abc import Sequence

from harness import PassResult, Scrape
from workloads import Workload

#: ``(name, unit, better)``; BENCHMARK.json lists the same, with bounds.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("throughput_qps", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("ttfa_p50_ms", "ms", "lower"),
    ("server_cpu_ms_per_query", "ms", "lower"),
    ("rss_peak_mb", "MB", "lower"),
)

#: End-to-end by nature, but reported with the per-layer metrics and
#: never gated: the tail of a cold workload *is* the server's full
#: garbage collections (8 of 112 ops), so p90 sits on their edge, and
#: 21 bursts leave two samples beyond it.  Spread over ten seeds was
#: 7 % on the cold workloads and 18 % on ``burst_shared``.
TAIL = (
    ("latency_p90_ms", "ms", "lower"),
    ("ttfa_p90_ms", "ms", "lower"),
)

PER_LAYER = TAIL + (
    # http (service/http.py)
    ("http.overhead_ms_per_query", "ms", "lower"),
    ("http.conns_per_query", "count", "lower"),
    ("http.bytes_out_per_query", "B", "lower"),
    ("http.sse_events_per_query", "count", "lower"),
    ("http.probe_p50_ms", "ms", "lower"),
    ("http.probe_max_ms", "ms", "lower"),
    # server (service/server.py, the front door of service/sharding.py)
    ("server.submit_ms_per_query", "ms", "lower"),
    ("server.pump_ms_per_query", "ms", "lower"),
    ("server.pump_calls_per_query", "count", "lower"),
    # cache, admission
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.get_us_per_call", "us", "lower"),
    ("cache.put_us_per_call", "us", "lower"),
    ("admission.refused_share", "ratio", "lower"),
    # keyword, repository
    ("keyword.generate_ms_per_query", "ms", "lower"),
    ("repository.optimize_ms_per_query", "ms", "lower"),
    ("repository.plan_hit_ratio", "ratio", "higher"),
    ("repository.fragment_hit_ratio", "ratio", "higher"),
    ("repository.candidate_hit_ratio", "ratio", "higher"),
    ("repository.template_hit_ratio", "ratio", "higher"),
    ("repository.expansion_hit_ratio", "ratio", "higher"),
    # batcher, engine, rankmerge, state (atc/, operators/)
    ("batcher.queries_per_batch", "count", "higher"),
    ("engine.execute_ms_per_query", "ms", "lower"),
    ("engine.stream_tuples_per_query", "count", "lower"),
    ("engine.probes_per_query", "count", "lower"),
    ("engine.probe_cache_hit_ratio", "ratio", "higher"),
    ("engine.join_probes_per_query", "count", "lower"),
    ("engine.tuples_inserted_per_query", "count", "lower"),
    ("engine.virtual_stream_read_share", "ratio", "lower"),
    ("engine.virtual_random_access_share", "ratio", "lower"),
    ("engine.virtual_join_share", "ratio", "lower"),
    ("rankmerge.answers_emitted_per_query", "count", "higher"),
    ("state.tuples_end", "count", "lower"),
    ("state.evictions_per_query", "count", "lower"),
    ("sharing.input_work_ratio", "ratio", "lower"),
    ("rss_growth_kb_per_query", "kB", "lower"),
    # routing, workers, protocol (service/sharding.py, workers.py, protocol.py)
    ("routing.front_cache_hit_ratio", "ratio", "higher"),
    ("routing.spillovers_per_query", "count", "lower"),
    ("routing.shard_imbalance", "ratio", "lower"),
    ("workers.call_ms_per_query", "ms", "lower"),
    ("workers.calls_per_query", "count", "lower"),
    ("protocol.encode_us_per_msg", "us", "lower"),
    ("protocol.decode_us_per_msg", "us", "lower"),
    ("wire.overhead_ms_per_query", "ms", "lower"),
    # bookkeeping
    ("loadgen.cpu_ms_per_query", "ms", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("unattributed_share", "ratio", "lower"),
    ("host.calibration_ms", "ms", "lower"),
)

UNITS = {name: unit for name, unit, _better in END_TO_END + PER_LAYER}


# -- order statistics --------------------------------------------------------

def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile with linear interpolation between order
    statistics (no cliff when ``p`` falls between two samples)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median_across_passes(per_pass: Sequence[Sequence[float]]) -> list[float]:
    """Op ``i``'s value is the median of its samples, one per pass."""
    if len({len(p) for p in per_pass}) != 1:
        raise ValueError("passes replayed op lists of different lengths")
    return [statistics.median(samples) for samples in zip(*per_pass)]


# -- end to end --------------------------------------------------------------

def end_to_end(workload: Workload, passes: Sequence[PassResult]
               ) -> tuple[dict[str, float], dict[str, list[float]]]:
    """The end-to-end metrics and the two tail percentiles, and each
    one's per-pass values (for percentiles: that pass's own percentile)
    to show a noisy pass."""
    queries = workload.timed_queries

    def lat(p: PassResult) -> list[float]:
        return [s.latency_ms for s in p.timed]

    def ttfa(p: PassResult) -> list[float]:
        return [s.ttfa_ms for s in p.timed]

    raw = {
        "setup_s": [p.setup_s for p in passes],
        "throughput_qps": [queries / p.wall_s for p in passes],
        "latency_p50_ms": [percentile(lat(p), 50) for p in passes],
        "latency_p90_ms": [percentile(lat(p), 90) for p in passes],
        "ttfa_p50_ms": [percentile(ttfa(p), 50) for p in passes],
        "ttfa_p90_ms": [percentile(ttfa(p), 90) for p in passes],
        "server_cpu_ms_per_query": [p.cpu_s * 1e3 / queries for p in passes],
        "rss_peak_mb": [p.hwm_end_kb / 1024.0 for p in passes],
    }
    metrics = {name: statistics.median(values)
               for name, values in raw.items()}
    op_latency = median_across_passes([lat(p) for p in passes])
    op_ttfa = median_across_passes([ttfa(p) for p in passes])
    metrics["latency_p50_ms"] = percentile(op_latency, 50)
    metrics["latency_p90_ms"] = percentile(op_latency, 90)
    metrics["ttfa_p50_ms"] = percentile(op_ttfa, 50)
    metrics["ttfa_p90_ms"] = percentile(op_ttfa, 90)
    return metrics, raw


# -- counters ----------------------------------------------------------------

_ENGINE_COUNTERS = {
    "stream_tuples": "repro_engine_stream_tuples_read_total",
    "probes": "repro_engine_probes_total",
    "probe_cache_hits": "repro_engine_probe_cache_hits_total",
    "join_probes": "repro_engine_join_probes_total",
    "tuples_inserted": "repro_engine_tuples_inserted_total",
    "virtual_stream_read_s": "repro_engine_stream_read_seconds_total",
    "virtual_random_access_s": "repro_engine_random_access_seconds_total",
    "virtual_join_s": "repro_engine_join_seconds_total",
    "answers_emitted": "repro_rankmerge_answers_emitted_total",
    "evictions": "repro_state_evictions_total",
    "admission_accepted": "repro_admission_accepted_total",
    "admission_rejected": "repro_admission_rejected_total",
    "admission_deferred": "repro_admission_deferred_total",
    "batches_closed": "repro_batcher_batches_closed_total",
}
_REPOSITORY_LAYERS = ("plan", "fragment", "candidate", "template",
                      "expansion")


def _flatten(scrape: Scrape) -> dict[str, float]:
    """The counters the per-layer metrics read, as one flat dict."""
    flat = {key: scrape.workers(name)
            for key, name in _ENGINE_COUNTERS.items()}
    # The answer cache users hit is the front door's; a sharded
    # fleet's worker caches mirror it and see no lookups.
    flat["cache_hits"] = scrape.front("repro_answer_cache_hits_total")
    flat["cache_misses"] = scrape.front("repro_answer_cache_misses_total")
    for layer in _REPOSITORY_LAYERS:
        flat[f"repository_{layer}_hits"] = scrape.workers(
            "repro_plan_repository_hits_total", layer=layer)
        flat[f"repository_{layer}_misses"] = scrape.workers(
            "repro_plan_repository_misses_total", layer=layer)
    flat["front_cache_hits"] = scrape.front(
        "repro_router_front_cache_hits_total")
    flat["spillovers"] = scrape.front("repro_router_spillovers_total")
    return flat


def counter_deltas(p: PassResult) -> dict[str, float]:
    """What the timed section added to each counter."""
    before, after = _flatten(p.before), _flatten(p.after)
    return {key: after[key] - before[key] for key in after}


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def counter_metrics(workload: Workload, p: PassResult) -> dict[str, float]:
    """The per-layer metrics that are counts: they repeat exactly."""
    q = workload.timed_queries
    d = counter_deltas(p)
    virtual = (d["virtual_stream_read_s"] + d["virtual_random_access_s"]
               + d["virtual_join_s"]) or 1.0
    decisions = (d["admission_accepted"] + d["admission_rejected"]
                 + d["admission_deferred"])
    # Whole-lifetime totals, warm-up included: the timed section of
    # ``hot_repeat`` closes no batch at all.
    batches = p.after.workers("repro_batcher_batches_closed_total")
    accepted = p.after.workers("repro_admission_accepted_total")
    routed = list(p.after.per_shard("repro_router_routed_total").values())
    out = {
        "cache.hit_ratio": _ratio(d["cache_hits"], d["cache_misses"]),
        "admission.refused_share":
            (d["admission_rejected"] + d["admission_deferred"]) / decisions
            if decisions else 0.0,
        "batcher.queries_per_batch": accepted / batches if batches else 0.0,
        "engine.stream_tuples_per_query": d["stream_tuples"] / q,
        "engine.probes_per_query": d["probes"] / q,
        "engine.probe_cache_hit_ratio":
            d["probe_cache_hits"] / d["probes"] if d["probes"] else 0.0,
        "engine.join_probes_per_query": d["join_probes"] / q,
        "engine.tuples_inserted_per_query": d["tuples_inserted"] / q,
        "engine.virtual_stream_read_share":
            d["virtual_stream_read_s"] / virtual,
        "engine.virtual_random_access_share":
            d["virtual_random_access_s"] / virtual,
        "engine.virtual_join_share": d["virtual_join_s"] / virtual,
        "rankmerge.answers_emitted_per_query": d["answers_emitted"] / q,
        "state.tuples_end": p.after.workers("repro_state_tuples"),
        "state.evictions_per_query": d["evictions"] / q,
        "routing.front_cache_hit_ratio": d["front_cache_hits"] / q,
        "routing.spillovers_per_query": d["spillovers"] / q,
        "routing.shard_imbalance":
            max(routed) * len(routed) / sum(routed) - 1.0
            if routed and sum(routed) else 0.0,
        "rss_growth_kb_per_query": (p.rss_end_kb - p.rss_start_kb) / q,
        "http.sse_events_per_query": sum(s.events for s in p.timed) / q,
        "loadgen.cpu_ms_per_query":
            sum(s.client_cpu_s for s in p.timed) * 1e3 / q,
    }
    for layer in _REPOSITORY_LAYERS:
        out[f"repository.{layer}_hit_ratio"] = _ratio(
            d[f"repository_{layer}_hits"], d[f"repository_{layer}_misses"])
    return out


def input_work_per_query(workload: Workload, p: PassResult) -> float:
    """Stream tuples read plus remote probes, per timed query: the
    paper's measure of the work sharing saves."""
    d = counter_deltas(p)
    return (d["stream_tuples"] + d["probes"]) / workload.timed_queries


# -- spans -------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's exclusive time.

    A synchronous span owns its duration minus its children's.  The
    ``http.*`` spans are coroutines: while one awaits, the loop's one
    thread runs other tasks (the housekeeping tick, another
    connection), whose synchronous spans own that time.  So an
    ``http.*`` span owns only the part of its lifetime that no
    synchronous span covers, minus the same for its ``http.*``
    children."""
    is_async = [name.startswith("http.") for name, *_rest in spans]
    # Synchronous spans at the top of their task's stack are disjoint
    # in time: one thread runs them.
    tops = sorted((start, end)
                  for i, (_n, start, end, parent, *_r) in enumerate(spans)
                  if not is_async[i] and (parent < 0 or is_async[parent]))
    starts = [a for a, _b in tops]
    ends = [b for _a, b in tops]
    cum = list(itertools.accumulate((b - a for a, b in tops), initial=0.0))

    def uncovered(start: float, end: float) -> float:
        i = bisect.bisect_right(ends, start)
        j = bisect.bisect_left(starts, end)
        if i >= j:
            return end - start
        covered = (cum[j] - cum[i] - max(0.0, start - starts[i])
                   - max(0.0, ends[j - 1] - end))
        return end - start - covered

    own = [uncovered(start, end) if is_async[i] else end - start
           for i, (_n, start, end, *_r) in enumerate(spans)]
    out = list(own)
    for i, (_n, _start, _end, parent, *_r) in enumerate(spans):
        if parent >= 0 and is_async[parent] == is_async[i]:
            out[parent] -= own[i]
    return out


def span_metrics(workload: Workload, p: PassResult,
                 spans: list[list]) -> dict[str, float]:
    """Per-layer times from the traced pass: a layer's time is the
    self time of its spans that began inside the timed section.
    ``unattributed_share`` is what the client's latencies leave once
    every server-side self time is taken out: the client's own work,
    the kernel's, and the event loop's wake-ups."""
    q = workload.timed_queries
    t0, t1 = p.timed[0].started, p.timed[-1].ended
    self_time = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    bytes_out = 0
    for index, (name, start, _end, _parent, _qid, nbytes) in enumerate(spans):
        if not t0 <= start <= t1:
            continue
        total[name] = total.get(name, 0.0) + self_time[index]
        calls[name] = calls.get(name, 0) + 1
        # The two handlers a query uses; /healthz and /metrics
        # connections write from the bare http.conn span.
        if name in ("http.submit", "http.stream"):
            bytes_out += nbytes

    def layer_ms(prefix: str) -> float:
        return sum(v for n, v in total.items()
                   if n.startswith(prefix)) * 1e3 / q

    def mean_us(name: str) -> float:
        return total.get(name, 0.0) * 1e6 / calls[name] \
            if calls.get(name) else 0.0

    latency_s = sum(s.ended - s.started for s in p.timed)
    return {
        "http.overhead_ms_per_query": layer_ms("http."),
        "http.conns_per_query": (calls.get("http.submit", 0)
                                 + calls.get("http.stream", 0)) / q,
        "http.bytes_out_per_query": bytes_out / q,
        "server.submit_ms_per_query": layer_ms("server.submit"),
        "server.pump_ms_per_query": layer_ms("server.pump"),
        "server.pump_calls_per_query": calls.get("server.pump", 0) / q,
        "cache.get_us_per_call": mean_us("cache.get"),
        "cache.put_us_per_call": mean_us("cache.put"),
        "keyword.generate_ms_per_query": layer_ms("keyword."),
        "repository.optimize_ms_per_query": layer_ms("repository."),
        "engine.execute_ms_per_query": layer_ms("engine."),
        "workers.call_ms_per_query": layer_ms("workers."),
        "workers.calls_per_query": sum(
            c for n, c in calls.items() if n.startswith("workers.")) / q,
        "unattributed_share": 1.0 - sum(total.values()) / latency_s,
    }


def mean_latency_ms(p: PassResult) -> float:
    return statistics.fmean(s.latency_ms for s in p.timed)


def median_latency_ms(p: PassResult) -> float:
    return statistics.median(s.latency_ms for s in p.timed)


def probe_metrics(probe_ms: Sequence[float]) -> dict[str, float]:
    if not probe_ms:
        return {"http.probe_p50_ms": 0.0, "http.probe_max_ms": 0.0}
    return {"http.probe_p50_ms": percentile(probe_ms, 50),
            "http.probe_max_ms": max(probe_ms)}


# -- micro-measurements ------------------------------------------------------

def protocol_metrics(workload: Workload, oracle_handles: dict
                     ) -> dict[str, float]:
    """Time the wire codec's public ``encode``/``decode`` on this
    run's own messages: one ``SubmitQuery`` and one ``AnswersReply``
    per timed query."""
    from repro.service.protocol import (
        AnswersReply, SubmitQuery, WorkerUpdate, decode, encode,
        encode_answers)
    messages = []
    for op in workload.timed:
        for query in op:
            messages.append(SubmitQuery(
                now=0.0, kq_id=query.qid, keywords=query.keywords,
                k=oracle_handles[query.qid].k, arrival=0.0))
            messages.append(AnswersReply(
                update=WorkerUpdate(),
                answers=encode_answers(oracle_handles[query.qid].answers)))
    t0 = time.perf_counter()
    frames = [encode(m) for m in messages]
    t1 = time.perf_counter()
    for frame in frames:
        decode(frame)
    t2 = time.perf_counter()
    return {"protocol.encode_us_per_msg": (t1 - t0) * 1e6 / len(messages),
            "protocol.decode_us_per_msg": (t2 - t1) * 1e6 / len(messages)}


def calibration_ms() -> float:
    """``bench_hotpath.calibrate``'s fixed pure-Python loop (best of
    three), so a slow host shows beside the numbers.  Copied, not
    imported: the benchmark must not change when that file does."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        digest = b"calibration"
        for _ in range(4000):
            digest = hashlib.sha256(digest * 8).digest()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best * 1e3
