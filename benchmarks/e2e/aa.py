#!/usr/bin/env python3
"""A/A: does the benchmark agree with itself?

    python benchmarks/e2e/aa.py --sets 2 --seeds 1 2 3 4 5 6 7 8 9 10

A *set* is one run of BENCHMARK.json's command per workload and seed,
all on the same commit.  For every end-to-end metric x workload this
prints the within-set spread (distance between the first and third
quartile of the set's values, as a share of their median) and the
disagreement between set medians (how much worse a later set's median
is than an earlier set's, as a share of the earlier).  From the worst
of each over all workloads it derives two bounds for the metric:
``resolves`` = max(5 %, 2 x worst disagreement) is what a comparison of
set medians can tell apart, and ``steady`` = 3 x worst spread is the
bound under which the benchmark's driver calls the metric steady (a
spread below a third of the bound).  The exit code is 0 when every
spread (``setup_s`` excepted, as in the driver) and every disagreement
stays inside the bound BENCHMARK.json declares.  Repeating one seed
(``--seeds 7 7 7``) gives the run-to-run noise alone.
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
FLOOR = 0.05


def run_once(spec: dict, workload: str, seed: int) -> dict:
    """One driver-style invocation; its last stdout line, parsed."""
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(argv, cwd=REPO, capture_output=True, text=True,
                         timeout=180.0)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {out.returncode}:\n"
                           f"{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} of "
                           f"{result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def report(spec: dict, names: list[str], seeds: list[int],
           values: list[dict[str, dict[str, list[float]]]]) -> int:
    """Print the table; 0 when every declared bound holds."""
    print(f"{len(values)} sets x {len(seeds)} seeds {seeds}, "
          f"{spec['run_seconds']} s per run")
    print(f"{'metric':<26}{'workload':<15}{'median':>11} "
          f"{'spread':>8} {'disagree':>9}")
    verdict = 0
    for m in spec["end_to_end"]:
        name, worst_spread, worst_disagree = m["name"], 0.0, 0.0
        for workload in names:
            per_set = [one[workload][name] for one in values]
            medians = [statistics.median(v) for v in per_set]
            s = max(spread(v) for v in per_set)
            d = max((worse_by(a, b, m["better"])
                     for a, b in itertools.combinations(medians, 2)),
                    default=0.0)
            worst_spread = max(worst_spread, s)
            worst_disagree = max(worst_disagree, d)
            print(f"{name:<26}{workload:<15}{medians[0]:>11.4g} "
                  f"{s:>8.2%} {d:>9.2%}")
        ok = worst_disagree <= m["bound"] and (
            name == "setup_s" or worst_spread <= m["bound"])
        verdict |= not ok
        print(f"{name:<26}{'=>':<15}resolves "
              f"{max(FLOOR, 2 * worst_disagree):.1%}, steady at "
              f"{3 * worst_spread:.1%}, declared {m['bound']:.0%}: "
              f"{'ok' if ok else 'TOO NOISY'}")
    return verdict


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=list(range(1, 11)))
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--out", type=pathlib.Path,
                        help="also write the raw values here as JSON")
    args = parser.parse_args()
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]

    # values[set][workload][metric] -> one value per seed
    values: list[dict[str, dict[str, list[float]]]] = []
    started = time.time()
    for index in range(args.sets):
        values.append({w: {m: [] for m in metrics} for w in names})
        for workload, seed in itertools.product(names, args.seeds):
            got = run_once(spec, workload, seed)
            for m in metrics:
                values[index][workload][m].append(got[m])
            print(f"set {index} {workload} seed {seed}: "
                  f"{time.time() - started:.0f} s", file=sys.stderr)
    if args.out:
        args.out.write_text(json.dumps(
            {"seeds": args.seeds, "sets": values}, indent=1) + "\n")
    return report(spec, names, args.seeds, values)


if __name__ == "__main__":
    sys.exit(main())
