"""Same serving report, pinned.

``tests/golden/service_report.json`` records what two seeded serving
runs print: the single-node service and a two-shard in-process fleet,
each replaying one open-loop arrival stream on a ``VirtualClock`` with
per-query deadlines, the ``defer`` admission policy under a tight
in-flight budget, and a few client cancellations.  For each run it
keeps ``report.render()`` and ``metrics_registry().render_prometheus()``
line by line.

The only wall-measured values in either text are the optimizer's: the
seconds (and the share derived from them) on render's ``optimizer :``
line, and ``repro_optimizer_wall_seconds_total``.  They are scrubbed;
everything else is virtual time or a count and must not move.  A
change that moves the report on purpose regenerates the file with
``PYTHONPATH=src python -m tests.test_service_golden`` (from the
repository root) and explains the diff.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from repro.common.clock import VirtualClock
from repro.common.config import ExecutionConfig, SharingMode
from repro.service import (
    LoadConfig,
    QService,
    ServiceConfig,
    ShardedQService,
    generate_abandonments,
    generate_load,
)

from tests.conftest import e2e_corpus

GOLDEN = Path(__file__).resolve().parent / "golden" / "service_report.json"

CONFIG = ExecutionConfig(mode=SharingMode.ATC_FULL, k=5, batch_window=1.0,
                         seed=7, cluster_jaccard=0.7,
                         optimizer_time_scale=0.0)
SERVICE = ServiceConfig(max_in_flight=2, admission_policy="defer",
                        default_deadline=2.5)
LOAD = LoadConfig(n_queries=60, rate_qps=8.0, k=5, n_templates=40,
                  seed=11, abandon_prob=0.2, patience_mean=1.5)

_WALL_RENDER = re.compile(
    r"optimizer : \S+s wall over (\d+) invocations \(share \S+\)")
_WALL_METRIC = re.compile(
    r"^(repro_optimizer_wall_seconds_total(?:\{[^}]*\})?) \S+$",
    flags=re.MULTILINE)


def scrub(text: str) -> list[str]:
    """The text's lines with the wall-measured optimizer values
    replaced by ``*``."""
    text = _WALL_RENDER.sub(
        r"optimizer : *s wall over \1 invocations (share *)", text)
    return _WALL_METRIC.sub(r"\1 *", text).splitlines()


def serve(n_shards: int) -> dict[str, list[str]]:
    """Replay the stream through one topology; its scrubbed texts."""
    federation = e2e_corpus()
    if n_shards == 1:
        service = QService(federation, CONFIG, SERVICE, clock=VirtualClock())
    else:
        service = ShardedQService(federation, CONFIG, n_shards=n_shards,
                                  service=SERVICE, clock=VirtualClock())
    load = generate_load(federation, LOAD)
    report = service.run(load, generate_abandonments(load, LOAD))
    return {
        "render": scrub(report.render()),
        "metrics": scrub(service.metrics_registry().render_prometheus()),
    }


def replay() -> dict[str, dict[str, list[str]]]:
    return {"single": serve(1), "sharded": serve(2)}


def test_serving_reports_match_the_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    live = replay()
    for topology in ("single", "sharded"):
        for text in ("render", "metrics"):
            assert live[topology][text] == golden[topology][text], \
                f"{topology} {text}"


def test_the_runs_exercise_what_they_pin():
    """Deferrals, cancellations and expiries all happen, so the golden
    pins their accounting and not only the happy path."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for topology in ("single", "sharded"):
        served = golden[topology]["render"][0]
        counts = dict((label, int(n)) for n, label in re.findall(
            r"(\d+) (deferred|cancelled|expired|coalesced)", served))
        assert all(counts[label] > 0 for label in
                   ("deferred", "cancelled", "expired")), served


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(replay(), indent=1) + "\n",
                      encoding="utf-8")
    sys.stdout.write(f"wrote {GOLDEN}\n")
