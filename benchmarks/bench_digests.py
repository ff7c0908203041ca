"""Serving digest check: the paper's two claims, pinned cell by cell.

The paper claims that every sharing mode returns the same top-k, and
that sharing shows up as less work: fewer stream reads plus fewer
random-access probes, the cost breakdown of its Figure 8.  Each row of
``PINS`` is one serving cell -- a corpus, a service posture, a sharing
mode and an open-loop load -- and running it must reproduce the row's
answers digest and its four deterministic work counters exactly.
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

    @property
    def cell(self) -> tuple:
        return self[:5]

    @property
    def work(self) -> int:
        """Input tuples: stream reads plus random-access probes."""
        return self.reads + self.probes


PINS = [
    Pin("large", "shared", "ATC-CQ", 200, 60.0,
        "c770a92b636b9e10f73dcb03f3f3d53fb1e0e021ed4e5f37b46287769cf2e97c",
        298, 1938, 16, 16),
    Pin("large", "shared", "ATC-UQ", 200, 60.0,
        "23907ae4e659841bc9603c3a34e25a87f7e21f27ca1184f78087f9d521305060",
        324, 105, 16, 22),
    Pin("large", "shared", "ATC-FULL", 200, 60.0,
        "24f668a235ce834f72c0914de568b9755c5a9161e3a433d989d07d4469cf910c",
        419, 90, 4, 29),
    Pin("large", "shared", "ATC-CL", 200, 60.0,
        "24f668a235ce834f72c0914de568b9755c5a9161e3a433d989d07d4469cf910c",
        419, 90, 6, 27),
    Pin("large", "shared", "ATC-FULL", 80, 60.0,
        "95b1a0e51a0f06ff1f2098714d1675730295093ab67dc7e327f244e97e6b6ed7",
        419, 90, 4, 29),
    Pin("large", "solo", "ATC-FULL", 200, 20.0,
        "725f765a12a96b47114cc9265eb038dce5ff31325532a446bea22bf6d0af9250",
        715, 1632, 40, 495),
    Pin("large", "solo", "ATC-CQ", 200, 60.0,
        "c770a92b636b9e10f73dcb03f3f3d53fb1e0e021ed4e5f37b46287769cf2e97c",
        3031, 10713, 196, 196),
    Pin("large", "solo", "ATC-UQ", 200, 60.0,
        "23907ae4e659841bc9603c3a34e25a87f7e21f27ca1184f78087f9d521305060",
        3245, 1562, 199, 270),
    Pin("large", "solo", "ATC-FULL", 200, 60.0,
        "c82e72f2bc053ba1c79735218bf08a4dddf689c2e97f235df18c4baa5c81da70",
        715, 1186, 40, 495),
    Pin("large", "solo", "ATC-CL", 200, 60.0,
        "83d5beaf00ffedc02b8680bf7cab426908d23c2ccd98bbbc1ce56498ba69c579",
        715, 1632, 100, 548),
    Pin("large", "solo", "ATC-FULL", 200, 180.0,
        "e184b82e678eb55f9cddedb8c33125fe63e9a8c1ae49f936321e25d0e6c641e1",
        582, 334, 40, 495),
    Pin("large", "solo", "ATC-FULL", 80, 60.0,
        "e62b8476ba302d77dae876af650cfc5feb8d77944657d13f181d3b2cff9984d9",
        529, 231, 16, 178),
    Pin("small", "shared", "ATC-CQ", 200, 60.0,
        "aac010ade4e8c210d8c22d1a29bc02cf36355f29b47a9a9e9538d8ff8bfa83a0",
        2869, 227, 16, 16),
    Pin("small", "shared", "ATC-UQ", 200, 60.0,
        "b9fbf6e90e8ba2d5779fdbb48a1b5e1b1d808f82b0bead70acccbc477f9b6b58",
        2562, 91, 16, 23),
    Pin("small", "shared", "ATC-FULL", 200, 60.0,
        "2e5392b9c6ab7926fd6c665f67b2aafbb808cc1858161d794caef9b70b2b6bb6",
        2201, 91, 4, 141),
    Pin("small", "shared", "ATC-CL", 200, 60.0,
        "4b184e1500ad6153db6193cd1abaca38bf298bdbd56f1e23b46d075c515cf19c",
        2279, 91, 6, 100),
    Pin("small", "shared/reneging", "ATC-FULL", 200, 60.0,
        "189f2b30f47ebb6f4d43da1cebf70eea8d139b7ab10d2e71d7919da390d78530",
        2201, 91, 4, 141),
    Pin("small", "solo", "ATC-FULL", 200, 60.0,
        "ab874a26ec78be14075d889029e1fee3b32924093d7b7aae4e742526b4b3e9b5",
        2743, 500, 40, 1378),
    Pin("small", "solo/reneging", "ATC-FULL", 200, 60.0,
        "f099abb0f3a46d5614307eb414bf513f3351cab1b20d4a34ffb323c9ca3e7300",
        2744, 319, 40, 1441),
    Pin("small", "hash/4", "ATC-FULL", 200, 60.0,
        "21f9168580a8625997e872e1194d00f9d61c71019b173ea6f8b60281d209c379",
        2642, 180, 5, 113),
    Pin("small", "cluster/4", "ATC-FULL", 200, 60.0,
        "2221a81b570ee66e39c78b93966b023d187236225663435bba25373e9cec91f8",
        2345, 213, 4, 88),
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
    return Outcome(
        Pin(*cell, answers_digest(report.tickets),
            metrics.stream_tuples_read, metrics.probes_performed,
            tel.optimizer_invocations, tel.plans_explored),
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
