"""The four workloads, as pure functions of (vocabulary, seed, size).

A workload is a warm-up op list plus a timed op list.  An *op* is what
the closed-loop client does before it looks at the clock again: one
query (POST, then stream to ``end``) or, on ``burst_shared``, one burst
of five queries (five POSTs, then five streams).  The server's corpus
seed stays pinned, and the program receives nothing but the queries.

**The seed perturbs a workload; it does not redraw it.**  Each workload
has one canonical op sequence, fixed by ``CANON``; the benchmark seed
shuffles it inside consecutive blocks of four ops and makes the small
choices (Zipf draws, popularity ranks, the order of a burst's five
queries).  Measured on the reference host, ten seeds each, with
everything else equal:

* which pairs: a pair's cost is heavy-tailed, so leaving a random 13 of
  an 18-keyword head's 153 pairs out moved ``cold_distinct`` between
  23.6 and 26.5 q/s.  The cold workloads therefore run *every* pair of
  the largest vocabulary head that fits the op count, and
  ``burst_shared`` the same clusters whatever the seed.
* which order: the plan graph is path dependent.  The same 120 pairs
  ended with 24.6k, 32k or 48k state tuples depending on their order
  alone, and throughput, CPU and RSS followed: an inter-quartile spread
  of 8 % under a full shuffle (``burst_shared`` p50: 13 %), 7 % under a
  mere rotation.  Block-of-four shuffles stay in one regime: RSS within
  0.2 %, p50 within 1 %.

So two seeds give different op sequences over the same set of queries
with nearly the same sharing structure: what differs between them is
the noise a later change must beat, not a different experiment.  Tail
terms beyond the first 24 (``plasmid``, ``synapse``, ...) are never
drawn: four such ops were half the wall of a 70-op run.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TypeVar

from repro.common.rng import ZipfSampler, make_rng

T = TypeVar("T")

K = 10
#: ``LoadConfig.vocabulary_size``: the head of the vocabulary the
#: service's own load generator draws from.
MAX_VOCABULARY = 24
HOT_TEMPLATES = 16
COLD_WARMUP = 8
BURST_SIZE = 5          # == ExecutionConfig.batch_size: the 5th POST closes the batch
BURST_WARMUP = 1
#: Seed of the canonical sequences: part of the workloads' definition.
CANON = 0
BLOCK = 4

#: Timed ops per second of ``--seconds``, fixed at what this code did
#: on the 2-core reference host when the benchmark was defined.  Sizes
#: are op counts, never durations, so counters and RSS compare run to
#: run; a faster program finishes the same ops sooner.
OPS_PER_SECOND = {
    "hot_repeat": 560.0,
    "cold_distinct": 20.0,
    "burst_shared": 3.6,
    "cold_sharded": 20.0,   # the same ops as cold_distinct, by construction
}

WORKLOADS = tuple(OPS_PER_SECOND)


@dataclass(frozen=True)
class Query:
    qid: str
    keywords: tuple[str, str]

    @property
    def key(self) -> frozenset[str]:
        return frozenset(self.keywords)


#: One closed-loop step: the queries POSTed before any is streamed.
Op = tuple[Query, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: tuple[Op, ...]
    timed: tuple[Op, ...]
    #: Extra ``repro serve`` arguments (the sharded fleet).
    server_args: tuple[str, ...] = ()

    @property
    def timed_queries(self) -> int:
        return sum(len(op) for op in self.timed)

    def queries(self) -> list[Query]:
        return [q for op in self.warmup + self.timed for q in op]


def ops_for(name: str, seconds: float, passes: int) -> int:
    """Timed ops per pass when one run measures ``seconds`` in all."""
    return max(int(OPS_PER_SECOND[name] * seconds / passes), 4)


def _pairs(size: int) -> int:
    return size * (size - 1) // 2


def perturbed(items: Sequence[T], rng: random.Random) -> list[T]:
    """``items`` shuffled inside consecutive blocks of ``BLOCK``."""
    out: list[T] = []
    for start in range(0, len(items), BLOCK):
        block = list(items[start:start + BLOCK])
        rng.shuffle(block)
        out += block
    return out


def hot_repeat(vocabulary: Sequence[str], seed: int, n_ops: int) -> Workload:
    """Zipf(1) repeats of 16 templates the warm-up already cached; the
    seed ranks the templates and draws the repeats."""
    pairs = list(itertools.combinations(vocabulary[:MAX_VOCABULARY], 2))
    templates = make_rng(CANON, "e2e-hot-templates").sample(
        pairs, HOT_TEMPLATES)
    warmup = tuple((Query(f"w{i}", t),) for i, t in enumerate(templates))
    make_rng(seed, "e2e-hot-ranks").shuffle(templates)
    picker = ZipfSampler(len(templates), theta=1.0,
                         rng=make_rng(seed, "e2e-hot-popularity"))
    timed = tuple((Query(f"t{i}", templates[picker.sample()]),)
                  for i in range(n_ops))
    return Workload("hot_repeat", warmup, timed)


def cold_distinct(vocabulary: Sequence[str], seed: int,
                  n_ops: int) -> Workload:
    """Every pair of the vocabulary's head exactly once, so no query is
    ever answered from the cache.  The head is the largest whose pairs
    fit in ``n_ops`` (plus the warm-up), and *all* of its pairs run."""
    size = 5
    while (size < min(MAX_VOCABULARY, len(vocabulary))
           and _pairs(size + 1) - COLD_WARMUP <= n_ops):
        size += 1
    pairs = list(itertools.combinations(vocabulary[:size], 2))
    make_rng(CANON, "e2e-cold-order").shuffle(pairs)
    pairs = perturbed(pairs, make_rng(seed, "e2e-cold-perturb"))
    warmup = tuple((Query(f"w{i}", p),)
                   for i, p in enumerate(pairs[:COLD_WARMUP]))
    timed = tuple((Query(f"t{i}", p),)
                  for i, p in enumerate(pairs[COLD_WARMUP:]))
    return Workload("cold_distinct", warmup, timed)


def cold_sharded(vocabulary: Sequence[str], seed: int,
                 n_ops: int) -> Workload:
    """The ``cold_distinct`` ops through two process workers."""
    base = cold_distinct(vocabulary, seed, n_ops)
    return Workload("cold_sharded", base.warmup, base.timed,
                    server_args=("--shards", "2", "--workers", "process"))


def _clusters(head: Sequence[str], count: int) -> list[tuple[str, ...]]:
    """``count`` four-keyword clusters no two of which share a pair
    (greedy, canonical)."""
    rng = make_rng(CANON, "e2e-burst-clusters")
    used: set[frozenset[str]] = set()
    clusters: list[tuple[str, ...]] = []
    for _attempt in range(400 * count):
        if len(clusters) == count:
            return clusters
        cluster = tuple(rng.sample(list(head), 4))
        pairs = {frozenset(p) for p in itertools.combinations(cluster, 2)}
        if not pairs & used:
            used |= pairs
            clusters.append(cluster)
    raise ValueError(f"could not place {count} pair-disjoint clusters "
                     f"in {len(head)} keywords")


def burst_shared(vocabulary: Sequence[str], seed: int,
                 n_ops: int) -> Workload:
    """Bursts of five overlapping queries: five of the six pairs of a
    four-keyword cluster, no pair used twice in the run.  The seed
    orders the timed bursts (in blocks) and the five queries of each."""
    n_bursts = BURST_WARMUP + n_ops
    # Greedy pair-disjoint 4-cliques cover about two thirds of a head's
    # pairs, hence nine pairs of head per burst.
    size = 6
    while _pairs(size) < 9 * n_bursts and size < MAX_VOCABULARY:
        size += 1
    clusters = _clusters(vocabulary[:size], n_bursts)
    rng = make_rng(seed, "e2e-burst-perturb")
    clusters = clusters[:BURST_WARMUP] + perturbed(
        clusters[BURST_WARMUP:], rng)
    bursts: list[Op] = []
    for i, cluster in enumerate(clusters):
        pairs = list(itertools.combinations(cluster, 2))[:BURST_SIZE]
        rng.shuffle(pairs)
        tag = "w" if i < BURST_WARMUP else f"t{i - BURST_WARMUP}"
        bursts.append(tuple(Query(f"{tag}.{j}", p)
                            for j, p in enumerate(pairs)))
    return Workload("burst_shared", tuple(bursts[:BURST_WARMUP]),
                    tuple(bursts[BURST_WARMUP:]))


GENERATORS = {
    "hot_repeat": hot_repeat,
    "cold_distinct": cold_distinct,
    "burst_shared": burst_shared,
    "cold_sharded": cold_sharded,
}


def singles(workload: Workload) -> Workload:
    """The same queries one op each: the no-sharing twin of a burst
    workload (``sharing.input_work_ratio``'s denominator)."""
    def split(ops: tuple[Op, ...]) -> tuple[Op, ...]:
        return tuple((q,) for op in ops for q in op)
    return Workload(workload.name + "+singles", split(workload.warmup),
                    split(workload.timed), workload.server_args)
