"""Benchmark-suite configuration.

Every benchmark runs one experiment driver at the *quick* scale (see
``repro.experiments.harness.quick_scale``), prints the paper-style
table, saves it under ``benchmarks/results/``, and asserts the
qualitative shape the paper reports.

Benchmarks use ``benchmark.pedantic(rounds=1)``: the quantity of
interest is the experiment's *output*, not the harness's wall time, and
a single deterministic run suffices.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser: pytest.Parser) -> None:
    group = parser.getgroup("sharded service bench")
    group.addoption(
        "--shards", type=int, default=4,
        help="worker count for the sharded service benchmark (default 4)")
    group.addoption(
        "--routing", default="hash,cluster",
        help="comma-separated routing policies the sharded benchmark "
             "runs and compares (default hash,cluster)")
    group.addoption(
        "--workers", default="inproc", choices=["inproc", "process"],
        help="shard worker transport for the parallel-scaling "
             "benchmark: 'process' spawns one OS process per shard "
             "and gates on wall-clock speedup (default inproc)")
    obs = parser.getgroup("observability bench")
    obs.addoption(
        "--trace-overhead", action="store_true", default=False,
        help="run the tracing-overhead checks: tracing-off wall time "
             "must stay within 2%% of a no-tracer build, and answers "
             "must be byte-identical across no-tracer / off / on")


@pytest.fixture(scope="session")
def trace_overhead_enabled(request) -> bool:
    return request.config.getoption("--trace-overhead")


@pytest.fixture(scope="session")
def bench_shards(request) -> int:
    return request.config.getoption("--shards")


@pytest.fixture(scope="session")
def bench_workers(request) -> str:
    return request.config.getoption("--workers")


@pytest.fixture(scope="session")
def bench_routing(request) -> list[str]:
    return [p.strip() for p in
            request.config.getoption("--routing").split(",") if p.strip()]


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_result(results_dir):
    def _save(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)
    return _save
