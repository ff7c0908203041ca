"""Benchmark-suite configuration.

Every figure benchmark runs one experiment driver at the *quick* scale
(see ``repro.experiments.harness.quick_scale``), prints the paper-style
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
