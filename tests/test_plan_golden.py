"""Same plans, pinned.

``tests/golden/plans.json`` records, for a fixed op list on the e2e
benchmark's corpus, what the optimizer decided for every batch: a
digest of the :class:`FactorizedPlan` (source ids, component ids with
their children / probe atoms / consumer CQs, ``cq_final``,
``cq_probe_atoms``) plus the record's ``candidate_count`` and
``plans_explored``.  Optimizer work that is meant to be *cheaper, not
different* must leave this file untouched; a change that moves a plan
on purpose regenerates it with ``PYTHONPATH=src python -m
tests.test_plan_golden`` (from the repository root) and explains the
diff.

The op list covers both regimes: every pair of the eight most frequent
keywords as a one-query batch (the ``cold_distinct`` shape), then six
five-query bursts over four-keyword clusters (the ``burst_shared``
shape: multi-query Algorithm 1 leaves, multi-CQ factorization), two of
them reaching back into keywords the plan graph already holds state
for, so the reuse oracle's readings take part.  The suite runs under
both CI hash-seed legs, so a plan that depends on set or dict iteration
order shows up as a diff between them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

from repro.common.clock import VirtualClock
from repro.common.config import ExecutionConfig, SharingMode
from repro.data.inverted import InvertedIndex
from repro.keyword.queries import KeywordQuery
from repro.optimizer.factorize import FactorizedPlan
from repro.service import QService, ServiceConfig

from tests.conftest import e2e_corpus

GOLDEN = Path(__file__).resolve().parent / "golden" / "plans.json"
K = 10
BURST = 5
#: Index quadruples into the vocabulary, one burst each.  Positions
#: below 8 were already served by the singles, so a cluster lists them
#: last: the first five of its six pairs are then all new queries (a
#: repeat would be answered by the cache and never reach the optimizer).
CLUSTERS = ((8, 9, 10, 11), (12, 13, 14, 15), (16, 17, 0, 1),
            (18, 19, 2, 3), (8, 12, 4, 5), (20, 21, 22, 23))


def op_list(vocabulary: tuple[str, ...]) -> list[list[tuple[str, str]]]:
    ops = [[pair] for pair in itertools.combinations(vocabulary[:8], 2)]
    for cluster in CLUSTERS:
        words = [vocabulary[i] for i in cluster]
        ops.append(list(itertools.combinations(words, 2))[:BURST])
    return ops


def plan_digest(plan: FactorizedPlan) -> str:
    payload = {
        "sources": sorted(plan.sources),
        "components": sorted(
            (spec.comp_id, list(spec.stream_children),
             list(spec.probe_atoms), sorted(spec.cqs))
            for spec in plan.components.values()),
        "cq_final": sorted(plan.cq_final.items()),
        "cq_probe_atoms": sorted(
            (cq_id, list(atoms))
            for cq_id, atoms in plan.cq_probe_atoms.items()),
    }
    rendered = json.dumps(payload, sort_keys=True)
    return hashlib.blake2s(rendered.encode(), digest_size=10).hexdigest()


def replay() -> list[dict]:
    """Serve the op list and describe every optimizer invocation."""
    federation = e2e_corpus()
    service = QService(
        federation,
        ExecutionConfig(mode=SharingMode.ATC_FULL, k=K, batch_window=2.0,
                        seed=7, cluster_jaccard=0.7,
                        optimizer_time_scale=0.0),
        ServiceConfig(), clock=VirtualClock())
    repository = service.workers[0].engine.repository
    optimize = repository.optimize
    batches: list[dict] = []

    def recording_optimize(uqs, **kwargs):
        outcome = optimize(uqs, **kwargs)
        batches.append({
            "queries": [" + ".join(uq.keywords) for uq in uqs],
            "plan": plan_digest(outcome.plan),
            "sources": len(outcome.plan.sources),
            "components": len(outcome.plan.components),
            "candidate_count": outcome.record.candidate_count,
            "plans_explored": outcome.record.plans_explored,
        })
        return outcome

    repository.optimize = recording_optimize
    vocabulary = InvertedIndex(federation).vocabulary()
    for number, op in enumerate(op_list(vocabulary)):
        handles = [
            service.submit(KeywordQuery(f"g{number}.{i}", keywords, k=K))
            for i, keywords in enumerate(op)
        ]
        service.drain()
        assert all(handle.done for handle in handles)
    return batches


def test_every_batch_gets_the_pinned_plan():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    batches = replay()
    assert len(batches) == len(golden["batches"])
    for number, (live, pinned) in enumerate(zip(batches, golden["batches"])):
        assert live == pinned, f"batch {number} ({pinned['queries']})"
    # The op list must keep exercising what it is there for.
    assert sum(len(b["queries"]) == BURST for b in batches) == len(CLUSTERS)
    assert any(b["plans_explored"] > 1 for b in batches)


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({"batches": replay()}, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {GOLDEN}\n")
