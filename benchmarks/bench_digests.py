"""Serving digest check: the paper's two claims, pinned cell by cell.

The paper claims that every sharing mode returns the same top-k, and
that sharing shows up as less work: fewer stream reads plus fewer
random-access probes, the cost breakdown of its Figure 8.  Each row of
``PINS`` is one serving cell -- a corpus, a service posture, a sharing
mode and an open-loop load -- and running it must reproduce the row's
answers digest and its six deterministic work counters exactly: stream
reads and probes (the execution's input work), optimizer invocations
and plans explored, and the optimizer's own work -- conjunctive
queries planned and factorization ops applied -- so that an optimizer
that does the same job twice fails a pin instead of only a clock.
Everything runs on the virtual clock with the optimizer's wall time
scaled to zero, so the rows are the same on every host and under every
``PYTHONHASHSEED``.  The tests after the table assert the paper's
shape on the same runs, and that one and four process shards serve
identical answers.

A mismatch prints the observed row as a ``Pin(...)`` literal; when a
change is meant to move a pin, paste that row over the old one.  Per
cell wall time is printed (run with ``-s``) and never gated:
``benchmarks/e2e`` is the performance contract.

    python -m pytest benchmarks/bench_digests.py -q
"""

from __future__ import annotations

import functools
import hashlib
import os
import time
from dataclasses import replace
from typing import NamedTuple

import pytest

from repro.common.config import ExecutionConfig, SharingMode
from repro.data.gus import GUSConfig, gus_federation
from repro.data.inverted import InvertedIndex
from repro.service import (
    LoadConfig,
    QService,
    ServiceConfig,
    ShardedQService,
    Telemetry,
    WorkerSpec,
    generate_abandonments,
    generate_load,
    handles_digest,
)


def _gus(min_rows: int, max_rows: int) -> GUSConfig:
    return GUSConfig(n_hubs=8, links_per_extra_hub=2, synonym_every=3,
                     satellites_per_hub=1, n_sites=4, min_rows=min_rows,
                     max_rows=max_rows, domain_factor=0.45, seed=11)


#: ``large`` scales relations up until per-tuple execution outweighs
#: the optimizer; ``small`` is the quick scale the paper-shape checks
#: run on.
CORPORA = {"large": _gus(400, 1000), "small": _gus(80, 260)}

#: A saturating Zipf stream: arrivals never wait, so the backlog
#: exposes each configuration's capacity.  Cells vary only
#: ``n_queries`` and ``rate_qps``.
LOAD = LoadConfig(n_queries=200, rate_qps=60.0, k=50, n_templates=16,
                  template_theta=0.9, vocabulary_size=24, seed=7)

#: 30 % of clients walk away after an exponential patience of mean 2
#: virtual seconds.
RENEGING = replace(LOAD, abandon_prob=0.3, patience_mean=2.0)

#: ``shared`` is the production default (answer cache and coalescing
#: on); under ``solo`` every arrival is optimized and executed.  A
#: ``/reneging`` suffix serves the stream with ``RENEGING``'s
#: cancellations; ``hash/4`` and ``cluster/4`` serve it from four
#: in-process shards under that routing policy.
POSTURES = {
    "shared": ServiceConfig(max_in_flight=256),
    "solo": ServiceConfig(max_in_flight=256, coalesce=False, cache_ttl=1e-9),
}


class Pin(NamedTuple):
    corpus: str
    posture: str
    mode: str
    n_queries: int
    rate: float
    digest: str
    reads: int
    probes: int
    invocations: int
    plans: int
    cqs_planned: int
    factorize_ops: int

    @property
    def cell(self) -> tuple:
        return self[:5]

    @property
    def work(self) -> int:
        """Input tuples: stream reads plus random-access probes."""
        return self.reads + self.probes


PINS = [
    Pin("large", "shared", "ATC-CQ", 200, 60.0,
        "0d463dfcf4c8a6af3003a84911ca1f90e799cc0a6258172550a682570891359b",
        298, 1938, 16, 16, 319, 1373),
    Pin("large", "shared", "ATC-UQ", 200, 60.0,
        "a6d07451ce79a9d55d122cfcfb38276aaf50676e5d746ddfcafd776ca3c324a2",
        321, 99, 16, 22, 319, 783),
    Pin("large", "shared", "ATC-FULL", 200, 60.0,
        "b2ebdbd41c50c9d13058c4d0fd12e3cc25c9089f5cec70cb26754152d81a5267",
        421, 90, 4, 29, 319, 647),
    Pin("large", "shared", "ATC-CL", 200, 60.0,
        "b2ebdbd41c50c9d13058c4d0fd12e3cc25c9089f5cec70cb26754152d81a5267",
        421, 90, 6, 27, 319, 660),
    Pin("large", "shared", "ATC-FULL", 80, 60.0,
        "0f0e61a084d2c51beb0c53b37a5b21fb3c64e6c1461b97d6627b4204cfea57e2",
        421, 90, 4, 29, 319, 647),
    Pin("large", "solo", "ATC-FULL", 200, 20.0,
        "9dd5a3eab6a0caa363617ccd85c69d60b99ab51c6de1c5e8dce9170383c05a67",
        715, 1137, 40, 495, 3942, 6388),
    Pin("large", "solo", "ATC-CQ", 200, 60.0,
        "0d463dfcf4c8a6af3003a84911ca1f90e799cc0a6258172550a682570891359b",
        3103, 10715, 198, 198, 3903, 16845),
    Pin("large", "solo", "ATC-UQ", 200, 60.0,
        "a6d07451ce79a9d55d122cfcfb38276aaf50676e5d746ddfcafd776ca3c324a2",
        3230, 1532, 199, 270, 3922, 9545),
    Pin("large", "solo", "ATC-FULL", 200, 60.0,
        "3efc440ef9e5c60952d3f92dee4586c885d34b045db1cd28055cb928079f5720",
        646, 731, 40, 525, 3922, 6324),
    Pin("large", "solo", "ATC-CL", 200, 60.0,
        "45ca9d692affe5da145b5328c59804442e0a0883d18a53a2fa0c4bb35ec66cf1",
        503, 1087, 99, 577, 3922, 6636),
    Pin("large", "solo", "ATC-FULL", 200, 180.0,
        "6b17028d4468746db32bee970f9239ac666beedb5fdcb33b017fcdb33a53b197",
        590, 241, 40, 523, 3923, 6309),
    Pin("large", "solo", "ATC-FULL", 80, 60.0,
        "a3df9febf055479afb7572c8366ede2ab96ab201538de06e2d060c420078de7b",
        527, 191, 16, 192, 1559, 2604),
    Pin("small", "shared", "ATC-CQ", 200, 60.0,
        "49e0369fabd467a8a2fb84a2913cc0f2d2d1bbc4a6d22842066a246be15d6ccc",
        2759, 228, 16, 16, 318, 1370),
    Pin("small", "shared", "ATC-UQ", 200, 60.0,
        "005531551c596935b014d003c24f3111bed2d175953365dc8ec8d86af4ec2012",
        2537, 61, 16, 23, 318, 722),
    Pin("small", "shared", "ATC-FULL", 200, 60.0,
        "f2a34505ea0bab1307cdeb17c42278dfa2f22fe3da1e5c23e57e9ba770da424a",
        2202, 61, 4, 141, 318, 569),
    Pin("small", "shared", "ATC-CL", 200, 60.0,
        "568680a9d23e7bb0d44d28355d4b983d1c1a07c912bfa2f204f6e8c0879236fd",
        2277, 61, 6, 100, 318, 571),
    Pin("small", "shared/reneging", "ATC-FULL", 200, 60.0,
        "b681bfbd317e2dcd8be703758b0ec1bf77a812a4572e4add1d0734a4bb3d8f1b",
        2202, 61, 4, 141, 318, 569),
    Pin("small", "solo", "ATC-FULL", 200, 60.0,
        "fcb4c1f817efc7117f6d0d46ad7141bb7a50b61903f0acbe6126a5e5c38caff0",
        2672, 289, 40, 1378, 3971, 5844),
    Pin("small", "solo/reneging", "ATC-FULL", 200, 60.0,
        "d2a8f755f8179410a673e7635398ab48480d5837f88c2cecc75c65e6fdc3fee0",
        2687, 173, 40, 1441, 3952, 5808),
    Pin("small", "hash/4", "ATC-FULL", 200, 60.0,
        "bbf13ed523162ae9770310b28dfe728033d632b256198331b92b61ed19de3456",
        2465, 180, 5, 113, 318, 621),
    Pin("small", "cluster/4", "ATC-FULL", 200, 60.0,
        "e7ea6a18c1768a3c63cc0e86b131b96a574b848b0d1426178e26f10b8e06b500",
        2320, 183, 4, 88, 318, 560),
]


def answers_digest(tickets) -> str:
    """SHA-256 over every ticket's ranked answers: exact scores, rank
    order and sorted provenance, ties at the cutoff included."""
    digest = hashlib.sha256()
    for ticket in sorted(tickets, key=lambda t: t.kq_id):
        for answer in ticket.answers or []:
            digest.update(repr(
                (ticket.kq_id, answer.score,
                 tuple(sorted(answer.provenance)))
            ).encode())
    return digest.hexdigest()


def _answer_key(answers) -> tuple:
    """One query's answers in scheduling-independent form: the ordered
    scores plus the sorted (score, rows) bag above the cutoff score --
    rows tied at the cutoff are interchangeable members of any top-k."""
    scores = tuple(round(a.score, 9) for a in answers)
    cutoff = min(scores, default=0.0)
    rows = tuple(sorted(
        (round(a.score, 9),
         tuple(sorted((rel, tid) for _al, rel, tid in a.provenance)))
        for a in answers if round(a.score, 9) > cutoff))
    return scores, rows


def _config(mode: str) -> ExecutionConfig:
    return ExecutionConfig(mode=SharingMode(mode), k=LOAD.k, batch_window=1.0,
                           optimizer_time_scale=0.0, seed=11)


@functools.cache
def _corpus(name: str):
    federation = gus_federation(CORPORA[name])
    return federation, InvertedIndex(federation)


class Outcome(NamedTuple):
    """What the checks read from one served cell.  The report itself is
    not kept: its handles would hold the whole service alive."""

    observed: Pin
    #: Input work the metrics registry publishes (single node only).
    published: int | None
    telemetry: Telemetry
    #: kq_id -> the answer key of a query that finished, else None.
    answers: dict[str, tuple | None]
    routed: list[int] | None


@functools.cache
def serve(cell: tuple) -> Outcome:
    corpus, posture, mode, n_queries, rate = cell
    federation, index = _corpus(corpus)
    load = generate_load(federation,
                         replace(LOAD, n_queries=n_queries, rate_qps=rate),
                         index=index)
    posture, _, variant = posture.partition("/")
    started = time.perf_counter()
    if posture in ("hash", "cluster"):
        # cluster_jaccard=0.7 keeps affinity clusters tight: the GUS
        # templates all overlap somewhat, and a looser threshold puts
        # one giant cluster on one shard.
        fleet = ShardedQService(
            federation, _config(mode).with_overrides(cluster_jaccard=0.7),
            n_shards=int(variant), routing=posture,
            service=POSTURES["shared"], index=index)
        report, published = fleet.run(load), None
    else:
        service = QService(federation, _config(mode), POSTURES[posture],
                           index=index)
        cancellations = generate_abandonments(load, RENEGING) \
            if variant == "reneging" else None
        report = service.run(load, cancellations=cancellations)
        registry = service.metrics_registry()
        published = sum(int(registry.get(name).value(mode=mode)) for name in
                        ("repro_engine_stream_tuples_read_total",
                         "repro_engine_probes_total"))
    tel = report.telemetry
    print(f"\n{cell}: {time.perf_counter() - started:.2f}s wall, optimizer "
          f"{tel.optimizer_wall:.2f}s")
    metrics = report.engine_metrics()
    records = metrics.optimizer_records
    return Outcome(
        Pin(*cell, answers_digest(report.tickets),
            metrics.stream_tuples_read, metrics.probes_performed,
            tel.optimizer_invocations, tel.plans_explored,
            sum(r.cqs_planned for r in records),
            sum(r.factorize_ops for r in records)),
        published,
        # A detached copy: the live one publishes into the service.
        Telemetry.merged([tel]),
        {t.kq_id: _answer_key(t.answers) if t.done else None
         for t in report.tickets},
        report.routing and list(report.routing.routed))


@pytest.mark.parametrize("pin", PINS, ids=lambda p: "-".join(
    str(v) for v in p.cell))
def test_pin(pin):
    outcome = serve(pin.cell)
    assert outcome.observed == pin, \
        f"observed row:\n    {outcome.observed!r},"
    if not pin.posture.endswith("/reneging"):
        assert outcome.telemetry.completed == pin.n_queries
        assert None not in outcome.answers.values()
    if outcome.published is not None:
        # The registry's published counters mirror the engine ledger.
        assert outcome.published == pin.work


def _small(posture: str, mode: str = "ATC-FULL") -> Outcome:
    return serve(("small", posture, mode, 200, 60.0))


def test_sharing_is_capacity():
    """Under the identical arrival stream, full sharing sustains more
    throughput than no sharing while reading strictly less input, and a
    streaming consumer waits less for its first answer than for the
    whole top-k."""
    full, cq = _small("shared"), _small("shared", "ATC-CQ")
    assert full.telemetry.throughput() > cq.telemetry.throughput()
    assert full.observed.work < cq.observed.work
    ttfa = full.telemetry.ttfa_percentiles()
    latency = full.telemetry.latency_percentiles()
    assert ttfa["ttfa_p50"] < latency["p50"]
    assert ttfa["ttfa_p95"] < latency["p95"]


@pytest.mark.parametrize("posture", ["shared", "solo"])
def test_abandonment(posture):
    """Reneging clients resolve exactly once, leave survivors' answers
    alone, and -- without reuse tiers -- reclaim input work."""
    patient, reneging = _small(posture), _small(f"{posture}/reneging")
    federation, index = _corpus("small")
    schedule = generate_abandonments(
        generate_load(federation, RENEGING, index=index), RENEGING)
    assert patient.telemetry.cancelled == 0
    tel = reneging.telemetry
    assert 0 < tel.cancelled <= len(schedule)
    assert tel.completed + tel.rejected + tel.cancelled + tel.expired \
        == LOAD.n_queries
    for kq_id, key in reneging.answers.items():
        if key is not None:
            assert key == patient.answers[kq_id], kq_id
    if posture == "solo":
        assert reneging.observed.work < patient.observed.work


def test_routing():
    """Both policies spread traffic, and affinity placement extracts at
    least the sharing of content-blind hashing."""
    hashed, clustered = _small("hash/4"), _small("cluster/4")
    for outcome in (hashed, clustered):
        assert sum(1 for n in outcome.routed if n > 0) > 1
    assert clustered.telemetry.throughput() >= hashed.telemetry.throughput()
    assert clustered.observed.work <= hashed.observed.work


#: 120 queries through hash-routed process shards.  Shard counts batch
#: differently, so the scheduling-independent ``handles_digest`` is the
#: one that must agree.
PROCESS_FLEET_DIGEST = \
    "4b802b9a91e09e28fded14d867ac015f8e95465cf3e5640d74692d3a531ac1d7"


def test_process_fleet():
    """One and four process shards serve the same answers; on a host
    with four cores the four-shard fleet is at least 1.5x faster in
    wall time (fleet start-up excluded)."""
    federation, index = _corpus("small")
    load = generate_load(federation, replace(LOAD, n_queries=120),
                         index=index)
    config = _config("ATC-FULL")
    walls, digests = {}, {}
    for n_shards in (1, 4):
        fleet = ShardedQService(
            federation, config, n_shards=n_shards, routing="hash",
            service=POSTURES["shared"], index=index, workers="process",
            worker_spec=WorkerSpec.gus(config, CORPORA["small"]))
        try:
            started = time.perf_counter()
            handles = [fleet.submit(kq) for kq in load]
            fleet.drain()
            walls[n_shards] = time.perf_counter() - started
        finally:
            fleet.close()
        assert all(h.done for h in handles), n_shards
        digests[n_shards] = handles_digest(handles)
    assert digests[1] == digests[4] == PROCESS_FLEET_DIGEST
    speedup = walls[1] / walls[4]
    cores = os.cpu_count() or 1
    print(f"\nprocess fleet: {walls[1]:.2f}s on 1 shard, {walls[4]:.2f}s "
          f"on 4 ({speedup:.2f}x, {cores} cores)")
    if cores >= 4:
        assert speedup >= 1.5
