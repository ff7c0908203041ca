"""Property-based test (hypothesis): plans depend on values, not names.

Node ids are digests: a streaming input's id hashes its expression's
canonical key, a component's hashes that key with its children's ids.
An id is an identity -- equal ids are the graft -- and never a value
to order by.  Each example draws a schedule from
:mod:`tests.test_oracle_properties` and serves it in every sharing mode
twice, the second time with both digests salted, so that every id and
every canonical key is a different string and ids sort differently.
The two runs must do the same work and answer the same: every work
counter of the engine ledger is identical, and a strict digest of the
handles -- exact scores in rank order with their full provenance, ties
at the cutoff included -- is byte-identical.

Run more examples with ``HYPOTHESIS_PROFILE=deep``
(see ``tests/conftest.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import SharingMode
from repro.plan import expressions

from tests.test_oracle_properties import SEEDS, postures, schedules, serve

#: The module, not the function ``repro.optimizer`` re-exports by name.
factorize = importlib.import_module("repro.optimizer.factorize")


def strict_digest(handles) -> str:
    """Every handle's disposition and answers, nothing tolerated."""
    digest = hashlib.sha256()
    for handle in handles:
        digest.update(repr((
            handle.kq_id, handle.status.value,
            [(a.score, a.cq_id, tuple(sorted(a.provenance)))
             for a in handle.answers or []],
        )).encode())
    return digest.hexdigest()


def work(report) -> tuple:
    """The engine ledger's counters and virtual stopwatches.  Reads per
    source are keyed by source id, so only their multiset counts."""
    metrics = report.engine_metrics()
    scalars = tuple(
        (f.name, getattr(metrics, f.name))
        for f in dataclasses.fields(metrics)
        if isinstance(getattr(metrics, f.name), (int, float)))
    return scalars + (sorted(metrics.per_source_reads.values()),)


def forget_canonical_keys() -> None:
    """Drop the memoized canonical keys of every live expression, so the
    next run derives them under whichever digest is in force."""
    for expr in list(expressions._INTERNED.values()):
        expr.__dict__.pop("canonical_key", None)
        expr.__dict__.pop("canonical_renaming", None)


def salted(digest):
    return lambda payload: digest(("salt", payload))


def run(seed, schedule, mode, k, budget, posture, sharded):
    forget_canonical_keys()
    handles, report, _engines = serve(seed, schedule, mode, k, budget,
                                      posture, sharded)
    return work(report), strict_digest(handles)


class TestIdsAreNotValues:
    @given(seed=st.sampled_from(SEEDS), schedule=schedules(),
           k=st.integers(1, 12),
           budget=st.sampled_from((None, 1, 40, 150)),
           posture=postures, sharded=st.sampled_from((False, False, True)))
    @settings(deadline=None, suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    def test_salting_the_id_digests_changes_nothing(
            self, monkeypatch, seed, schedule, k, budget, posture, sharded):
        for mode in SharingMode:
            args = (seed, schedule, mode, k, budget, posture, sharded)
            plain = run(*args)
            with monkeypatch.context() as patch:
                patch.setattr(factorize, "_digest",
                              salted(factorize._digest))
                patch.setattr(expressions, "_digest",
                              salted(expressions._digest))
                salty = run(*args)
            forget_canonical_keys()
            assert salty == plain, mode
