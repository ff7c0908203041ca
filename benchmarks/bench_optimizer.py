"""Optimizer-path benchmark: optimizer wall under template repetition,
and proof the plans did not change.

Drives the same saturating 200-query Zipf stream as ``bench_hotpath``
-- but through a service configured so that *repeats reach the
optimizer* (coalescing off, answer-cache TTL effectively zero).  The
hot-path bench measures execution with the answer cache absorbing the
Zipf head before the intake pipeline ever sees it; this bench measures
the intake -> candidate-enumeration -> best-plan -> factorization
pipeline itself, which runs in full for every batch (only the keyword
expansion is interned).  In production the same regime appears
whenever the answer cache misses: TTL expiry, capacity pressure, or
personalized ``k``.

One run per cell, two axes per profile:

* **per-mode breakdown** -- all four sharing configurations at the
  standard offered rate: cumulative optimizer wall (sum of
  ``OptimizerRecord.elapsed_wall``), plans explored, expansion-interning
  hits and misses, and the answers digest;
* **offered-rate sweep** -- the headline mode (ATC-FULL) across
  arrival rates: higher rates close bigger batches, which grows the
  factorization scope.

Gate (the perf-smoke CI job runs the quick profile): against the
checked-in baseline (``results/BENCH_optimizer.json``) every cell's
answers digest must match exactly -- optimizer work may get cheaper,
never different.  The wall figures are recorded, not gated.

Run as a script::

    python benchmarks/bench_optimizer.py --profile full \
        --output BENCH_optimizer.json \
        --baseline benchmarks/results/BENCH_optimizer.json

or through pytest (the quick profile).
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import platform
import sys
import time

from repro.common.config import ExecutionConfig, SharingMode
from repro.data.gus import gus_federation
from repro.data.inverted import InvertedIndex
from repro.service import LoadConfig, QService, ServiceConfig, generate_load

# Same corpus and digest form as bench_hotpath -- imported, not
# copied, so the two benches' digests stay comparable by construction.
from bench_hotpath import GUS, answers_digest

ALL_MODES = (SharingMode.ATC_CQ, SharingMode.ATC_UQ,
             SharingMode.ATC_FULL, SharingMode.ATC_CL)
HEADLINE_MODE = SharingMode.ATC_FULL
BASELINE_PATH = pathlib.Path(__file__).parent / "results" / \
    "BENCH_optimizer.json"

BASE_LOAD = LoadConfig(n_queries=200, rate_qps=60.0, k=50, n_templates=16,
                       template_theta=0.9, vocabulary_size=24, seed=7)

PROFILES = {
    "full": {
        "modes": ALL_MODES,
        "n_queries": 200,
        "rates": (20.0, 60.0, 180.0),
    },
    "quick": {
        "modes": (HEADLINE_MODE,),
        "n_queries": 80,
        "rates": (60.0,),
    },
}


def run_one(federation, index, load, mode: SharingMode) -> dict:
    config = ExecutionConfig(mode=mode, k=load[0].k, batch_window=1.0,
                             optimizer_time_scale=0.0, seed=11)
    # Coalescing off + an immediately expiring answer cache: every
    # arrival is admitted and optimized, so the optimizer pipeline --
    # not the front-door caches -- is what gets measured.
    service = QService(federation, config,
                       ServiceConfig(max_in_flight=256, coalesce=False,
                                     cache_ttl=1e-9),
                       index=index)
    # The previous cell's service is cyclic garbage (plan graphs point
    # back at their operators); collect it now, or a full collection
    # lands inside this cell's optimizer wall.
    gc.collect()
    started = time.perf_counter()
    report = service.run(load)
    wall = time.perf_counter() - started
    assert all(t.done for t in report.tickets), str(mode)
    telemetry = report.telemetry
    return {
        "mode": str(mode),
        "wall_seconds": round(wall, 4),
        "optimizer_wall_s": round(telemetry.optimizer_wall, 4),
        "optimizer_invocations": telemetry.optimizer_invocations,
        "plans_explored": telemetry.plans_explored,
        "repository": service.engine.repository.stats.snapshot(),
        "answers_digest": answers_digest(report.tickets),
    }


def run_profile(profile: str) -> dict:
    spec = PROFILES[profile]
    federation = gus_federation(GUS)
    index = InvertedIndex(federation)
    cells: dict[str, dict] = {}
    for rate in spec["rates"]:
        load_cfg = LoadConfig(
            n_queries=spec["n_queries"], rate_qps=rate, k=BASE_LOAD.k,
            n_templates=BASE_LOAD.n_templates,
            template_theta=BASE_LOAD.template_theta,
            vocabulary_size=BASE_LOAD.vocabulary_size, seed=BASE_LOAD.seed)
        load = generate_load(federation, load_cfg, index=index)
        # The per-mode breakdown runs at the standard rate (60 q/s);
        # the sweep's other rates cover the headline mode only.
        if rate == 60.0 or len(spec["rates"]) == 1:
            modes = spec["modes"]
        else:
            modes = (HEADLINE_MODE,)
        for mode in modes:
            cell = run_one(federation, index, load, mode)
            cell["rate_qps"] = rate
            cells[f"{mode}@{rate:g}"] = cell
    return {
        "n_queries": spec["n_queries"],
        "k": BASE_LOAD.k,
        "n_templates": BASE_LOAD.n_templates,
        "cells": cells,
    }


def check_against_baseline(result: dict, baseline: dict,
                           profile: str) -> list[str]:
    failures: list[str] = []
    base_profile = baseline.get("profiles", {}).get(profile)
    if base_profile is None:
        return [f"baseline has no {profile!r} profile"]
    for cell_key, base_cell in base_profile["cells"].items():
        got = result["cells"].get(cell_key)
        if got is None:
            continue
        if got["answers_digest"] != base_cell["answers_digest"]:
            failures.append(
                f"{cell_key}: answers digest changed "
                f"({base_cell['answers_digest'][:12]} -> "
                f"{got['answers_digest'][:12]}); optimizer work must "
                "never change results")
    return failures


def render(result: dict, profile: str) -> str:
    lines = [f"optimizer benchmark [{profile}]: {result['n_queries']} "
             f"queries, {result['n_templates']} Zipf templates, "
             f"k={result['k']}, answer cache bypassed"]
    for cell_key, cell in result["cells"].items():
        lines.append(
            f"  {cell_key:14s} optimizer wall "
            f"{cell['optimizer_wall_s']:6.2f}s over "
            f"{cell['optimizer_invocations']} invocations, "
            f"{cell['plans_explored']} plans explored, digest "
            f"{cell['answers_digest'][:12]}")
    return "\n".join(lines)


def merge_document(output_path: pathlib.Path, profile: str,
                   result: dict) -> dict:
    document = {
        "benchmark": "optimizer",
        "schema_version": 2,
        "profiles": {},
    }
    if output_path.exists():
        try:
            existing = json.loads(output_path.read_text())
            if existing.get("benchmark") == "optimizer":
                document["profiles"] = existing.get("profiles", {})
        except (json.JSONDecodeError, OSError):
            pass
    document["profiles"][profile] = result
    document["environment"] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    return document


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--profile", choices=sorted(PROFILES),
                        default="full")
    parser.add_argument("--quick", action="store_true",
                        help="shorthand for --profile quick")
    parser.add_argument("--output", type=pathlib.Path,
                        default=BASELINE_PATH)
    parser.add_argument("--baseline", type=pathlib.Path, default=None,
                        help="baseline BENCH_optimizer.json; digests must "
                             "match it exactly")
    args = parser.parse_args(argv)
    profile = "quick" if args.quick else args.profile

    result = run_profile(profile)
    print(render(result, profile))

    failures: list[str] = []
    if args.baseline is not None:
        try:
            baseline = json.loads(args.baseline.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            failures.append(f"cannot read baseline {args.baseline}: {exc}")
        else:
            failures.extend(check_against_baseline(result, baseline, profile))

    document = merge_document(args.output, profile, result)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(document, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {args.output}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


# -- pytest entry point ---------------------------------------------------


def test_optimizer_quick(benchmark, save_result):
    """Quick profile under pytest: the answers digest must match the
    checked-in baseline."""
    result = benchmark.pedantic(run_profile, args=("quick",),
                                rounds=1, iterations=1)
    save_result("optimizer_quick", render(result, "quick"))
    assert result["cells"][f"{HEADLINE_MODE}@60"]["optimizer_invocations"]
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        failures = check_against_baseline(result, baseline, "quick")
        assert not failures, failures


if __name__ == "__main__":
    raise SystemExit(main())
