#!/usr/bin/env python
"""Where the retained heap goes after an in-process ``cold_distinct`` replay.

Usage: ``python scripts/heap_census.py [--seed 7] [--seconds 18]
[--max-peak-mib N] [--max-bytes-per-stuple N]
[--max-module-mib MODULE=N ...]``

Builds the e2e benchmark's corpus and its ``cold_distinct`` op list --
the ops ``benchmarks/e2e/run.py --workload cold_distinct --seed N
--seconds S`` sends -- and replays them through ``harness.oracle_replay``
(an in-process ``QService`` on a ``VirtualClock``) under ``tracemalloc``.
The handles it returns keep the service, and so the whole plan graph,
alive; after one ``gc.collect()`` the script prints

* the peak traced heap during the replay, next to the retained total:
  no m-join outlives the replay, so only the mid-run figure shows what
  operators -- a pending recovery join among them -- held while they
  ran;
* the retained heap by source module (where each block was allocated),
* the live ``STuple`` count and bytes per ``STuple`` -- the bytes
  allocated in ``data/rows.py`` that are still live, less the answers'
  provenance ``frozenset``s (built by ``STuple.provenance``, held by
  answers, not by tuples; printed apart), over that count,
* the collector's per-generation collections during the replay and the
  tracked-object count after it,
* the plan repository's expansion table: its entry count and the traced
  heap that clearing it frees, per entry -- what a cached expansion
  costs beyond the objects the generator shares with it.  The table is
  cleared last, after every figure above is taken.

With ``--max-peak-mib`` it exits 1 when the peak is above the limit;
with ``--max-bytes-per-stuple`` when the per-tuple figure is; with
``--max-module-mib MODULE=N`` (repeatable) when that module retains
more than N MiB -- e.g. ``optimizer/repository.py=1``, which holds the
keyword-expansion intern table and the keyword-level fragment sets, or
``plan/expressions.py=6``, which a finished query's pinned expressions
would exceed.  All three are CI perf-smoke gates.  It reads the
benchmark's modules and changes none of them.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import pathlib
import sys
import tracemalloc

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
E2E = REPO / "benchmarks" / "e2e"
sys.path[:0] = [str(SRC), str(E2E)]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

from repro.data.rows import STuple  # noqa: E402
from repro.optimizer.repository import PlanRepository  # noqa: E402

ROWS_MODULE = "data/rows.py"
TOP_MODULES = 12


def module_name(filename: str) -> str:
    path = pathlib.Path(filename)
    for root in (SRC / "repro", REPO):
        try:
            return path.relative_to(root).as_posix()
        except ValueError:
            continue
    return path.name


def module_limit(text: str) -> tuple[str, float]:
    """One ``MODULE=N`` argument: a module path and its limit in MiB."""
    module, _, limit = text.rpartition("=")
    try:
        if module:
            return module, float(limit)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected MODULE=MIB, got {text!r}")


def provenance_lines() -> range:
    """The source lines of ``STuple.provenance``, where the answers'
    provenance ``frozenset``s are allocated."""
    lines, first = inspect.getsourcelines(STuple.provenance.fget)
    return range(first, first + len(lines))


def clear_expansion_tables(tables: list[dict]) -> int:
    """Clear the expansion tables; return the traced bytes that frees."""
    before = tracemalloc.get_traced_memory()[0]
    for table in tables:
        table.clear()
    gc.collect()
    return before - tracemalloc.get_traced_memory()[0]


def census(seed: int, seconds: float) -> dict:
    gc.collect()
    tracemalloc.start()
    federation = harness.corpus()
    workload = workloads.cold_distinct(
        harness.vocabulary(federation), seed,
        workloads.ops_for("cold_distinct", seconds, run.PASSES))
    collections_before = [s["collections"] for s in gc.get_stats()]
    tracemalloc.reset_peak()
    handles = harness.oracle_replay(federation, workload)
    peak = tracemalloc.get_traced_memory()[1]
    collections = [s["collections"] - before for s, before
                   in zip(gc.get_stats(), collections_before)]
    gc.collect()
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)])
    tracked = gc.get_objects()
    stuples = sum(1 for obj in tracked if type(obj) is STuple)
    tracked_count = len(tracked)
    tables = [obj._expansions for obj in tracked
              if type(obj) is PlanRepository]
    del tracked
    expansions = sum(len(table) for table in tables)
    expansion_bytes = clear_expansion_tables(tables)
    tracemalloc.stop()
    by_module: dict[str, int] = {}
    for stat in snapshot.statistics("filename"):
        name = module_name(stat.traceback[0].filename)
        by_module[name] = by_module.get(name, 0) + stat.size
    provenance = provenance_lines()
    provenance_bytes = sum(
        stat.size for stat in snapshot.statistics("lineno")
        if module_name(stat.traceback[0].filename) == ROWS_MODULE
        and stat.traceback[0].lineno in provenance)
    rows_bytes = by_module.get(ROWS_MODULE, 0)
    tuple_bytes = rows_bytes - provenance_bytes
    return {
        "queries": len(handles),
        "peak_bytes": peak,
        "by_module": by_module,
        "stuples": stuples,
        "rows_bytes": rows_bytes,
        "provenance_bytes": provenance_bytes,
        "bytes_per_stuple": tuple_bytes / stuples if stuples else 0.0,
        "collections": collections,
        "tracked": tracked_count,
        "expansions": expansions,
        "expansion_bytes": expansion_bytes,
    }


def render(result: dict) -> str:
    mib = 1024 * 1024
    total = sum(result["by_module"].values())
    lines = [f"cold_distinct replay: {result['queries']} queries, "
             f"retained {total / mib:.1f} MiB, "
             f"peak {result['peak_bytes'] / mib:.1f} MiB during the replay"]
    ranked = sorted(result["by_module"].items(), key=lambda kv: -kv[1])
    per_entry = result["expansion_bytes"] / max(1, result["expansions"])
    for name, size in ranked[:TOP_MODULES]:
        lines.append(f"  {size / mib:8.1f} MiB  {name}")
    lines += [
        f"live STuples        {result['stuples']}",
        f"{ROWS_MODULE} retained  {result['rows_bytes'] / mib:.1f} MiB, "
        f"{result['provenance_bytes'] / mib:.1f} MiB of it answer provenance",
        f"bytes per STuple    {result['bytes_per_stuple']:.0f}",
        "gc collections      gen0 {} / gen1 {} / gen2 {}".format(
            *result["collections"]),
        f"gc tracked objects  {result['tracked']}",
        f"expansion table     {result['expansions']} entries, "
        f"{per_entry / 1024:.1f} KiB per entry "
        f"({result['expansion_bytes'] / mib:.2f} MiB freed by clearing it)",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed (the corpus seed stays 7)")
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="run length the op count is sized for")
    parser.add_argument("--max-peak-mib", type=float,
                        help="exit 1 when the peak traced heap during the "
                             "replay is above this many MiB")
    parser.add_argument("--max-bytes-per-stuple", type=float,
                        help="exit 1 above this many bytes per STuple")
    parser.add_argument("--max-module-mib", type=module_limit,
                        action="append", default=[], metavar="MODULE=N",
                        help="exit 1 when MODULE (a path as printed, e.g. "
                             "optimizer/repository.py) retains more than "
                             "N MiB; repeatable")
    args = parser.parse_args(argv)
    for module, _ in args.max_module_mib:
        # A module that retains nothing is absent from the census, so a
        # misspelt path would pass silently: require that it exists.
        if not any((root / module).is_file() for root in (SRC / "repro", REPO)):
            parser.error(f"--max-module-mib: no module {module!r}")
    result = census(args.seed, args.seconds)
    print(render(result))
    failures = []
    peak = result["peak_bytes"] / (1024 * 1024)
    if args.max_peak_mib is not None and peak > args.max_peak_mib:
        failures.append(f"peak {peak:.1f} MiB > {args.max_peak_mib:g}")
    limit = args.max_bytes_per_stuple
    if limit is not None and result["bytes_per_stuple"] > limit:
        failures.append(f"{result['bytes_per_stuple']:.0f} B per STuple "
                        f"> {limit:g}")
    for module, mib in args.max_module_mib:
        retained = result["by_module"].get(module, 0) / (1024 * 1024)
        if retained > mib:
            failures.append(f"{module} retains {retained:.1f} MiB > {mib:g}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
