#!/usr/bin/env python3
"""End-to-end HTTP/SSE benchmark of ``repro serve --http``.

    python benchmarks/e2e/run.py --seed 7

spawns the real server as a subprocess, drives it over HTTP/SSE with
the stdlib client, prints every metric by name with its unit, checks
every answer against the in-process oracle, and writes a results
document under ``benchmarks/e2e/results/``.  Without ``--workload`` it
runs all four workloads, the timed passes and the traced pass of each;
the driver's form

    run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and one half: ``--trace 0`` the three timed passes
(end-to-end metrics), ``--trace 1`` the untraced reference pass plus
the traced pass (per-layer metrics).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See README.md beside this file for what each metric means.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro" / "cli.py").is_file():
    sys.exit(f"error: {SRC}/repro is missing; the benchmark builds "
             f"nothing and needs the program's source beside it")
sys.path[:0] = [str(SRC), str(HERE)]

import harness  # noqa: E402
import reduce  # noqa: E402
import workloads  # noqa: E402

#: Never below three: every reported quantity is a median of passes.
PASSES = 3
RESULTS = HERE / "results"


def commit_id() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=HERE,
            capture_output=True, text=True, timeout=10.0)
    except (OSError, subprocess.TimeoutExpired):
        return "nocommit"
    return out.stdout.strip() if out.returncode == 0 else "nocommit"


class Run:
    """One invocation: the corpus, the CPU plan, and where files go."""

    def __init__(self, seed: int, seconds: float, stem: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.stem = stem
        self.cpus = harness.plan_cpus()
        self.federation = harness.corpus()
        self.vocabulary = harness.vocabulary(self.federation)
        RESULTS.mkdir(exist_ok=True)

    def workload(self, name: str) -> workloads.Workload:
        return workloads.GENERATORS[name](
            self.vocabulary, self.seed,
            workloads.ops_for(name, self.seconds, PASSES))

    def one_pass(self, workload: workloads.Workload, label: str,
                 traced: bool = False) -> harness.PassResult:
        base = f"{self.stem}.{workload.name}.{label}"
        return harness.run_pass(
            workload, self.cpus, RESULTS / f"{base}.server.log",
            span_path=RESULTS / f"{base}.spans.json" if traced else None,
            probe=traced)


def pass_record(workload: workloads.Workload,
                p: harness.PassResult) -> dict:
    """One pass as the results document keeps it: raw, so that a noisy
    pass can be seen rather than guessed."""
    return {
        "server_argv": p.server_argv,
        "setup_s": p.setup_s,
        "wall_s": p.wall_s,
        "server_cpu_s": p.cpu_s,
        "rss_start_kb": p.rss_start_kb,
        "rss_end_kb": p.rss_end_kb,
        "hwm_end_kb": p.hwm_end_kb,
        "failed_ops": sum(not s.ok for s in p.samples),
        "counter_deltas": reduce.counter_deltas(p),
        "counter_metrics": reduce.counter_metrics(workload, p),
        "spans": str(p.span_path) if p.span_path else None,
    }


def timed_part(run: Run, workload: workloads.Workload, doc: dict
               ) -> tuple[list[harness.PassResult], dict[str, float]]:
    passes = [run.one_pass(workload, f"pass{i}") for i in range(PASSES)]
    metrics, raw = reduce.end_to_end(workload, passes)
    doc["passes"] = [pass_record(workload, p) for p in passes]
    doc["per_pass"] = raw
    # Counts must repeat exactly pass to pass, or the passes did not
    # replay the same work and their median means nothing.
    counts = [(d["counter_deltas"]["stream_tuples"],
               d["counter_deltas"]["probes"],
               d["counter_deltas"]["cache_hits"]) for d in doc["passes"]]
    doc["counts_repeat"] = len(set(counts)) == 1
    return passes, metrics


def traced_part(run: Run, workload: workloads.Workload, oracle: dict,
                reference: harness.PassResult | None, doc: dict
                ) -> tuple[list[tuple[workloads.Workload,
                                      harness.PassResult]],
                           dict[str, float]]:
    """The per-layer metrics: counts from an untraced reference pass,
    times from one traced pass, and the two like-for-like extras."""
    extra: list[tuple[workloads.Workload, harness.PassResult]] = []
    if reference is None:
        reference = run.one_pass(workload, "reference")
        extra.append((workload, reference))
    traced = run.one_pass(workload, "traced", traced=True)
    extra.append((workload, traced))
    spans = json.loads(traced.span_path.read_text())
    tail, _raw = reduce.end_to_end(workload, [reference])
    metrics = {name: tail[name] for name, _u, _b in reduce.TAIL}
    metrics.update(reduce.counter_metrics(workload, reference))
    metrics.update(reduce.span_metrics(workload, traced, spans))
    metrics.update(reduce.probe_metrics(traced.probe_ms))
    metrics.update(reduce.protocol_metrics(workload, oracle))
    # On medians: a mean would carry a pass's garbage collections.
    metrics["trace.overhead_share"] = \
        reduce.median_latency_ms(traced) \
        / reduce.median_latency_ms(reference) - 1.0
    metrics["host.calibration_ms"] = reduce.calibration_ms()

    metrics["sharing.input_work_ratio"] = 1.0
    metrics["wire.overhead_ms_per_query"] = 0.0
    if workload.timed_queries > len(workload.timed):
        # Bursts: the same queries one at a time, untimed, show what
        # sharing saved.
        single = workloads.singles(workload)
        unshared = run.one_pass(single, "singles")
        extra.append((single, unshared))
        metrics["sharing.input_work_ratio"] = (
            reduce.input_work_per_query(workload, reference)
            / reduce.input_work_per_query(single, unshared))
    if workload.server_args:
        # A fleet: the same ops without it, traced alike; the
        # difference is routing, the JSON wire, the pipe and the
        # worker loop.
        twin = dataclasses.replace(
            workload, name=workload.name + "+unsharded", server_args=())
        unsharded = run.one_pass(twin, "traced", traced=True)
        extra.append((twin, unsharded))
        metrics["wire.overhead_ms_per_query"] = (
            reduce.mean_latency_ms(traced)
            - reduce.mean_latency_ms(unsharded))
    doc["traced_passes"] = [
        dict(pass_record(w, p), workload=w.name) for w, p in extra]
    return extra, metrics


def measure(run: Run, name: str, parts: tuple[bool, bool]) -> dict:
    """Run one workload's timed and/or traced part; returns its
    section of the results document."""
    do_timed, do_traced = parts
    workload = run.workload(name)
    doc: dict = {
        "workload": name,
        "ops": {"warmup": len(workload.warmup), "timed": len(workload.timed),
                "timed_queries": workload.timed_queries},
        "metrics": {},
    }
    oracle = harness.oracle_replay(run.federation, workload)
    checked: list[tuple[workloads.Workload, harness.PassResult]] = []
    passes: list[harness.PassResult] = []
    timed: dict[str, float] = {}
    layers: dict[str, float] = {}
    if do_timed:
        passes, timed = timed_part(run, workload, doc)
        checked += [(workload, p) for p in passes]
    if do_traced:
        extra, layers = traced_part(
            run, workload, oracle, passes[-1] if passes else None, doc)
        checked += extra
    # Where both halves ran, the three-pass medians win over the
    # reference pass's own tail percentiles.
    found = {**layers, **timed}
    wanted = (reduce.END_TO_END if do_timed else ()) \
        + (reduce.PER_LAYER if do_traced else ())
    doc["metrics"] = {name: found[name] for name, _u, _b in wanted}
    expected = harness.oracle_digests(oracle)
    attempted = 0
    reasons: list[str] = []
    for checked_workload, p in checked:
        tried, why = harness.check_answers(p, checked_workload, expected)
        attempted += tried
        reasons += why
    doc.update(attempted=attempted, failed=len(reasons),
               failure_reasons=reasons[:5])
    return doc


def render(doc: dict) -> str:
    lines = [f"== {doc['workload']}: {doc['ops']['timed']} timed ops "
             f"({doc['ops']['timed_queries']} queries) after "
             f"{doc['ops']['warmup']} warm-up ops; "
             f"{doc['failed']} of {doc['attempted']} ops failed"]
    for reason in doc["failure_reasons"]:
        lines.append(f"   failed: {reason}")
    if doc.get("counts_repeat") is False:
        lines.append("   WARNING: work counters differ between passes")
    for name, value in doc["metrics"].items():
        lines.append(f"{doc['workload']:<14} {name:<38} "
                     f"{value:>14.4f} {reduce.UNITS[name]}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed (the corpus seed stays 7)")
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="timed seconds one run measures, over its "
                             "three passes, at the reference host's rates")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: timed passes only; 1: traced pass only "
                             "(default: both)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    started = time.time()
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    parts = (args.trace != 1, args.trace != 0)
    commit = commit_id()
    stem = f"{commit}-{args.seed}"
    if args.workload:
        stem += f"-{args.workload}-trace{args.trace}" \
            if args.trace is not None else f"-{args.workload}"
    run = Run(args.seed, args.seconds, stem)
    document = {
        "schema": "benchmarks/e2e results v1",
        "argv": sys.argv[1:] if argv is None else argv,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": PASSES,
        "environment": {
            "commit": commit,
            "nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "server_cpu": run.cpus[0],
            "generator_cpu": run.cpus[1],
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": [],
    }
    print(f"benchmarks/e2e: seed {args.seed}, {args.seconds:g} s per run, "
          f"server on cpu {run.cpus[0]}, generator on cpu {run.cpus[1]}")
    for name in names:
        doc = measure(run, name, parts)
        document["workloads"].append(doc)
        print(render(doc), flush=True)
    document["elapsed_s"] = time.time() - started
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"results: {path} ({document['elapsed_s']:.1f} s)")

    prefix = len(names) > 1
    print(json.dumps({
        "correct": all(d["failed"] == 0 for d in document["workloads"]),
        "attempted": sum(d["attempted"] for d in document["workloads"]),
        "failed": sum(d["failed"] for d in document["workloads"]),
        "metrics": {
            (f"{d['workload']}:{name}" if prefix else name):
                {"value": value, "unit": reduce.UNITS[name]}
            for d in document["workloads"]
            for name, value in d["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
