#!/usr/bin/env python
"""Where the optimizer's work goes on the in-process e2e replays.

Usage: ``python scripts/optimizer_census.py [--seed 7] [--seconds 18]
[--max-calls-per-cq WORKLOAD=N ...]``

Builds the e2e benchmark's corpus and its ``cold_distinct`` and
``burst_shared`` op lists -- the ops ``benchmarks/e2e/run.py --workload
W --seed N --seconds S`` sends -- and replays each through an
in-process ``QService`` on a ``VirtualClock`` with the optimizer's wall
time kept off the clock, as ``harness.oracle_replay`` does otherwise.
Each workload is replayed twice, on a fresh corpus each time:

* once under ``sys.setprofile``, counting the function calls made
  inside ``PlanRepository.optimize`` -- Python frames entered
  (generator resumptions included) and builtins called, as cProfile
  counts them, less the census's own wrappers -- with the collector
  off so that no collection lands in the count;
* once without the profiler, timing the CPU each stage spends
  (``time.process_time``).

Per stage -- the driving aliases of every conjunctive query, candidate
enumeration, Algorithm 1 (``BestPlanSearch.run``), factorization, and
the rest of ``optimize`` (the keyword-fragment table and the record) --
it prints the CPU milliseconds and the calls, both in all and per
planned conjunctive query.  The calls are a function of the program
and the ops alone, so they repeat run to run and under every
``PYTHONHASHSEED``; the seconds are the host's.

With ``--max-calls-per-cq WORKLOAD=N`` (repeatable) it exits 1 when
that workload's calls per planned conjunctive query, over the whole of
``optimize``, are above N: the CI perf-smoke gate, which never reads
seconds.  It reads the benchmark's modules and changes none of them.
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import sys
import time
from collections.abc import Callable

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
E2E = REPO / "benchmarks" / "e2e"
sys.path[:0] = [str(SRC), str(E2E)]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

from repro.common.clock import VirtualClock  # noqa: E402
from repro.common.config import ExecutionConfig, SharingMode  # noqa: E402
from repro.keyword.queries import KeywordQuery  # noqa: E402
from repro.optimizer import repository  # noqa: E402
from repro.service import QService, ServiceConfig  # noqa: E402

WORKLOADS = ("cold_distinct", "burst_shared")
#: (stage, owner, attribute): ``optimize`` calls ``owner.attribute``
#: for the stage.
STAGES = (
    ("driving aliases", repository, "driving_stream_aliases"),
    ("candidates", repository, "enumerate_candidates"),
    ("Algorithm 1", repository.BestPlanSearch, "run"),
    ("factorize", repository, "factorize"),
)
NAMES = [stage for stage, _owner, _attr in STAGES]
REST = "rest of optimize"


class Ledger:
    """Calls and CPU seconds per stage, and the CQs planned."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys([*NAMES, REST], 0)
        self.cpu = dict.fromkeys([*NAMES, REST], 0.0)
        self.cqs = 0
        self.batches = 0
        self.stage = REST

    def profile(self, frame, event: str, _arg) -> None:
        # A frame of this script is the census's own instrumentation.
        if event in ("call", "c_call") \
                and frame.f_code.co_filename != __file__:
            self.calls[self.stage] += 1

    def enter(self, stage: str) -> tuple[str, float]:
        outer, self.stage = self.stage, stage
        return outer, time.process_time()

    def leave(self, stage: str, outer: str, started: float) -> None:
        spent = time.process_time() - started
        self.cpu[stage] += spent
        self.cpu[outer] -= spent
        self.stage = outer


def staged(ledger: Ledger, stage: str, function: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        outer, started = ledger.enter(stage)
        try:
            return function(*args, **kwargs)
        finally:
            ledger.leave(stage, outer, started)
    return wrapper


def replay(workload: workloads.Workload, counting: bool) -> Ledger:
    """Serve ``workload``'s ops on a fresh corpus with the stages
    instrumented; the patched attributes are restored afterwards."""
    ledger = Ledger()
    optimize = repository.PlanRepository.optimize

    def optimize_wrapper(self, uqs, *args, **kwargs):
        ledger.cqs += sum(len(uq.cqs) for uq in uqs)
        ledger.batches += 1
        started = time.process_time()
        if counting:
            sys.setprofile(ledger.profile)
        try:
            return optimize(self, uqs, *args, **kwargs)
        finally:
            if counting:
                sys.setprofile(None)
            ledger.cpu[REST] += time.process_time() - started

    patches = [(owner, attr, staged(ledger, stage, getattr(owner, attr)))
               for stage, owner, attr in STAGES]
    patches.append((repository.PlanRepository, "optimize", optimize_wrapper))
    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, _patched in patches]
    federation = harness.corpus()
    service = QService(
        federation,
        ExecutionConfig(mode=SharingMode.ATC_FULL, k=workloads.K,
                        batch_window=2.0, seed=harness.CORPUS_SEED,
                        cluster_jaccard=0.7, optimizer_time_scale=0.0),
        ServiceConfig(), clock=VirtualClock())
    for owner, attr, patched in patches:
        setattr(owner, attr, patched)
    if counting:
        gc.disable()
    try:
        for op in workload.warmup + workload.timed:
            handles = [service.submit(KeywordQuery(q.qid, q.keywords,
                                                   k=workloads.K))
                       for q in op]
            service.drain()
            if not all(handle.done for handle in handles):
                raise RuntimeError(f"{workload.name}: an op did not finish")
    finally:
        gc.enable()
        for owner, attr, original in saved:
            setattr(owner, attr, original)
    del service
    gc.collect()
    return ledger


def census(name: str, seed: int, seconds: float) -> dict:
    federation = harness.corpus()
    workload = workloads.GENERATORS[name](
        harness.vocabulary(federation), seed,
        workloads.ops_for(name, seconds, run.PASSES))
    counted = replay(workload, counting=True)
    timed = replay(workload, counting=False)
    return {
        "workload": name,
        "queries": len(workload.queries()),
        "batches": counted.batches,
        "cqs": counted.cqs,
        "calls": counted.calls,
        "cpu_s": timed.cpu,
    }


def calls_per_cq(result: dict) -> float:
    return sum(result["calls"].values()) / max(1, result["cqs"])


def render(result: dict) -> str:
    cqs = max(1, result["cqs"])
    lines = [f"{result['workload']} replay: {result['queries']} queries, "
             f"{result['batches']} optimizer invocations, "
             f"{result['cqs']} CQs planned",
             f"  {'stage':<18}{'CPU ms':>9}{'ms/CQ':>8}"
             f"{'calls':>11}{'calls/CQ':>10}"]
    for stage in [*NAMES, REST, "optimize"]:
        if stage == "optimize":
            cpu = sum(result["cpu_s"].values())
            calls = sum(result["calls"].values())
        else:
            cpu, calls = result["cpu_s"][stage], result["calls"][stage]
        lines.append(f"  {stage:<18}{cpu * 1e3:>9.0f}{cpu * 1e3 / cqs:>8.3f}"
                     f"{calls:>11}{calls / cqs:>10.1f}")
    return "\n".join(lines)


def workload_limit(text: str) -> tuple[str, float]:
    """One ``WORKLOAD=N`` argument."""
    name, _, limit = text.rpartition("=")
    try:
        if name in WORKLOADS:
            return name, float(limit)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected WORKLOAD=N with WORKLOAD one of {WORKLOADS}, got {text!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed (the corpus seed stays 7)")
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="run length the op count is sized for")
    parser.add_argument("--max-calls-per-cq", type=workload_limit,
                        action="append", default=[], metavar="WORKLOAD=N",
                        help="exit 1 when WORKLOAD's Python calls inside "
                             "optimize, per planned CQ, are above N; "
                             "repeatable")
    args = parser.parse_args(argv)
    failures = []
    limits = dict(args.max_calls_per_cq)
    for name in WORKLOADS:
        result = census(name, args.seed, args.seconds)
        print(render(result), flush=True)
        observed = calls_per_cq(result)
        if name in limits and observed > limits[name]:
            failures.append(f"{name}: {observed:.1f} calls per CQ > "
                            f"{limits[name]:g}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
