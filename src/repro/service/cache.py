"""The answer cache.

Qunits (Nandi & Jagadish) motivates caching *returned units* across
users: keyword workloads are heavily Zipfian, so the same handful of
popular searches recurs across many users.  The online service keeps a
small TTL'd cache of final top-k answer lists keyed by the *normalized*
query -- keyword multiset (case-folded, order-insensitive) plus ``k`` --
so a repeated popular query is answered without touching the batcher,
optimizer, or plan graphs at all.

Time is the service's virtual time: entries expire ``ttl`` virtual
seconds after they were stored, and capacity pressure evicts in LRU
order.  The cache is the only owner of that rule: a stale entry leaves
when a lookup finds it, or when an insertion over capacity purges every
stale entry before it evicts a live one -- nothing sweeps on a
schedule, and residency stays bounded by ``capacity`` either way.
Hit/miss/eviction/expiry counts feed the service telemetry's
cache-hit-rate line.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.keyword.queries import RankedAnswer
from repro.obs.instruments import MetricsRegistry

#: A normalized query identity: (case-folded keyword set, k).
CacheKey = tuple[frozenset[str], int]


def normalize_key(keywords: Iterable[str], k: int) -> CacheKey:
    """Collapse a query to its cache identity.

    Case and keyword order never change the answer set, so
    ``("Protein", "gene")`` and ``("gene", "protein")`` share an entry;
    a different ``k`` is a different answer list and must not.
    """
    return (frozenset(kw.lower() for kw in keywords), int(k))


@dataclass
class CacheEntry:
    answers: list[RankedAnswer]
    stored_at: float


@dataclass
class CacheStats:
    """Counter ledger; ``insertions - evictions - expirations -
    overwrites`` equals the resident entry count at all times."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    expirations: int = 0
    overwrites: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def snapshot(self) -> dict[str, float]:
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "insertions": float(self.insertions),
            "evictions": float(self.evictions),
            "expirations": float(self.expirations),
            "overwrites": float(self.overwrites),
            "hit_rate": self.hit_rate,
        }


class ResultCache:
    """TTL + LRU cache of final answer lists, in virtual time."""

    def __init__(self, ttl: float = 300.0, capacity: int = 1024) -> None:
        if ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.ttl = ttl
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: OrderedDict[CacheKey, CacheEntry] = OrderedDict()
        #: Conservative lower bound on the oldest resident
        #: ``stored_at`` (only ever too low, never too high), so the
        #: capacity path can skip the O(n) expiry scan when no entry
        #: can possibly have expired.  Tightened exactly by
        #: ``purge_expired``.
        self._oldest_stored_at = math.inf

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def get(self, key: CacheKey, now: float,
            record: bool = True) -> list[RankedAnswer] | None:
        """Return the cached answers for ``key``, or None.

        An entry older than ``ttl`` at ``now`` counts as a miss (and is
        dropped); a hit refreshes the entry's LRU position.  Pass
        ``record=False`` for internal polling (the service retrying a
        deferred query every step) so hit/miss stats keep reflecting
        user-facing lookups only -- expirations are still counted, as
        the entry genuinely lapsed.
        """
        entry = self._entries.get(key)
        if entry is None:
            if record:
                self.stats.misses += 1
            return None
        if now - entry.stored_at > self.ttl:
            del self._entries[key]
            self.stats.expirations += 1
            if record:
                self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        if record:
            self.stats.hits += 1
        return entry.answers

    def put(self, key: CacheKey, answers: list[RankedAnswer],
            now: float) -> None:
        """Store ``answers`` under ``key``, evicting entries to fit.

        Capacity pressure first purges entries already past their TTL
        (counted as ``expirations`` -- they were dead regardless), and
        only then evicts live entries in LRU order (counted as
        ``evictions``).  Evicting blind used to drop a live LRU entry
        while stale entries stayed resident, and miscounted the dropped
        expired entries as evictions.
        """
        if key in self._entries:
            del self._entries[key]
            self.stats.overwrites += 1
        self._entries[key] = CacheEntry(list(answers), now)
        if now < self._oldest_stored_at:
            self._oldest_stored_at = now
        self.stats.insertions += 1
        if len(self._entries) > self.capacity \
                and now - self._oldest_stored_at > self.ttl:
            # Something *may* be stale (the bound is conservative, so a
            # stale entry always trips it); purge before touching live
            # LRU entries.  A warm cache of fresh entries skips this
            # scan entirely.
            self.purge_expired(now)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def purge_expired(self, now: float) -> int:
        """Drop every entry past its TTL; returns how many went."""
        stale = [key for key, entry in self._entries.items()
                 if now - entry.stored_at > self.ttl]
        for key in stale:
            del self._entries[key]
        self.stats.expirations += len(stale)
        self._oldest_stored_at = min(
            (entry.stored_at for entry in self._entries.values()),
            default=math.inf)
        return len(stale)

    def publish_metrics(self, registry: MetricsRegistry) -> None:
        """Republish the ledger as ``repro_answer_cache_*`` instruments.
        Called from the collector of whichever service *owns* this
        cache (a shared tier is published by the front door alone, so
        fleet merges never double count); every publish is absolute,
        so it is idempotent."""
        r, cs = registry, self.stats
        r.counter("repro_answer_cache_hits_total",
                  "answer-cache lookups served").set(cs.hits)
        r.counter("repro_answer_cache_misses_total",
                  "answer-cache lookups missed").set(cs.misses)
        r.counter("repro_answer_cache_insertions_total",
                  "complete result sets admitted").set(cs.insertions)
        r.counter("repro_answer_cache_evictions_total",
                  "entries evicted under capacity pressure"
                  ).set(cs.evictions)
        r.counter("repro_answer_cache_expirations_total",
                  "entries dropped past their TTL").set(cs.expirations)
        r.counter("repro_answer_cache_overwrites_total",
                  "entries replaced by a fresher completion"
                  ).set(cs.overwrites)
        r.gauge("repro_answer_cache_entries",
                "resident answer-cache entries").set(len(self))
