"""Streaming and random-access sources.

Section 3 of the paper distinguishes two ways the middleware reaches
remote data:

* **Streaming sources** return the results of a (possibly pushed-down)
  subquery in nonincreasing score order, one tuple per request, each
  read paying a network delay.  :class:`StreamingSource` wraps a site
  database's materialized SPJ result and meters it out, charging the
  virtual clock and metrics for every read, and exposing the *bound* --
  the score of the next unread tuple -- that threshold maintenance
  requires.

* **Random-access sources** are probed with join-key values and return
  matching tuples (the 2-way semijoin style of [25]).
  :class:`RandomAccessSource` wraps indexed lookups, charges probe
  delays, and caches probe results (the paper: "we cache tuples from
  random probes", Section 7.1), so repeated probes with the same key
  are free after the first.

Both source kinds are *shared objects*: several conjunctive queries may
read the same stream through split operators, and the QS manager tracks
each stream's read position across epochs for reuse (Section 6).
"""

from __future__ import annotations

import math
import random
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from repro.common.clock import VirtualClock
from repro.common.config import DelayModel
from repro.common.errors import DataError
from repro.common.rng import poisson_delay
from repro.data.rows import Row, STuple
from repro.plan.expressions import SPJ
from repro.obs.records import Metrics

if TYPE_CHECKING:
    from repro.data.database import Database
    from repro.operators.ranked_join import RankedJoin

#: Score bound reported by an exhausted stream.
EXHAUSTED = -math.inf


class StreamingSource:
    """A score-ordered stream of STuples for one input expression.

    The underlying site executes the expression once (that work happens
    "at the source" and is not charged to the middleware clock); the
    middleware then pulls tuples one at a time, each read advancing the
    virtual clock by a Poisson network delay.

    The read *position* survives across query batches: when later
    queries reuse this input (Section 6.1), the optimizer asks
    :attr:`tuples_read` to discount already-paid reads, and the ATC
    resumes from the current position rather than re-reading.
    """

    def __init__(self, name: str, expr: SPJ, database: Database,
                 clock: VirtualClock, metrics: Metrics,
                 delays: DelayModel, rng: random.Random) -> None:
        self.name = name
        self.expr = expr
        self.database = database
        self.clock = clock
        self.metrics = metrics
        self.delays = delays
        self._rng = rng
        #: The site's ranked producer, made on first touch; it memoizes
        #: what it has produced.  A top-k stream typically reads a tiny
        #: prefix, so the site joins only as deep as it is read (the
        #: order is bit-identical to a full sort).
        self._producer: RankedJoin | None = None
        self._position = 0

    def _result(self, index: int) -> STuple | None:
        """The ``index``-th tuple of the stream, ``None`` past the end."""
        if self._producer is None:
            self._producer = self.database.ranked_producer(self.expr)
        return self._producer.result(index)

    # -- streaming interface -------------------------------------------------

    @property
    def tuples_read(self) -> int:
        return self._position

    @property
    def exhausted(self) -> bool:
        return self._result(self._position) is None

    def bound(self) -> float:
        """Upper bound on the intrinsic score of any *unread* tuple.

        Equals the next tuple's intrinsic score (streams are sorted), or
        ``-inf`` once exhausted.  Before the first read this is the
        stream's maximum possible score.
        """
        tup = self._result(self._position)
        return EXHAUSTED if tup is None else tup.intrinsic

    def read(self) -> STuple | None:
        """Pull the next tuple, paying the network delay; None when done."""
        tup = self._result(self._position)
        if tup is None:
            return None
        self._position += 1
        delay = self._delay(self.delays.stream_read_mean)
        self.clock.advance(delay)
        self.metrics.record_stream_read(self.name, delay)
        return tup

    def remaining(self) -> int:
        """Unread tuples left; forces full production (test/debug use)."""
        self._result(sys.maxsize)
        assert self._producer is not None
        return len(self._producer.emitted) - self._position

    def reset(self) -> None:
        """Rewind to the start of the stream.

        Used when the QS manager evicts this input's state: the cheap
        in-memory prefix is gone, so a future consumer must re-pay the
        network cost of streaming from the site again.
        """
        self._position = 0

    def _delay(self, mean: float) -> float:
        if self.delays.deterministic:
            return mean
        return poisson_delay(self._rng, mean)

    def __repr__(self) -> str:
        return (f"StreamingSource({self.name!r}, read={self._position}, "
                f"bound={self.bound():.4f})")


class RandomAccessSource:
    """A probe-able remote source for one relation (or subexpression).

    Probes are keyed by ``(attr, value)``; results are cached so the
    network delay is paid once per distinct key.  Selections (e.g. a
    keyword match on the probed relation) are applied at the remote
    site, mirroring a pushed-down predicate.
    """

    def __init__(self, name: str, relation: str, database: Database,
                 clock: VirtualClock, metrics: Metrics,
                 delays: DelayModel, rng: random.Random,
                 selections: Sequence[Any] = (),
                 use_cache: bool = True) -> None:
        self.name = name
        self.relation = relation
        self.database = database
        self.clock = clock
        self.metrics = metrics
        self.delays = delays
        self._rng = rng
        self.selections = tuple(selections)
        self.use_cache = use_cache
        self._cache: dict[tuple[str, Any], list[Row]] = {}
        self._cached_rows = 0

    def probe(self, attr: str, value: Any) -> list[Row]:
        """All rows with ``attr == value`` passing this source's selections."""
        key = (attr, value)
        cached = self.use_cache and key in self._cache
        if cached:
            rows = self._cache[key]
            self.metrics.record_probe(0.0, cached=True)
        else:
            rows = self.database.probe(self.relation, attr, value,
                                       self.selections)
            # With caching disabled the same key re-probes and
            # overwrites its slot; the gauge must track residency, not
            # traffic.
            previous = self._cache.get(key)
            if previous is not None:
                self._cached_rows -= len(previous)
            self._cache[key] = rows
            self._cached_rows += len(rows)
            delay = self._delay(self.delays.random_probe_mean)
            self.clock.advance(delay)
            self.metrics.record_probe(delay, cached=False)
        return rows

    def probe_stuples(self, alias: str, attr: str, value: Any) -> list[STuple]:
        """Probe and wrap results as single-atom STuples under ``alias``."""
        out = []
        for row in self.probe(attr, value):
            contribution = self.database.contribution(row.relation, row.tid)
            out.append(STuple.single(alias, row, contribution))
        return out

    def max_contribution(self) -> float:
        """Largest score contribution any probe result can have."""
        return self.database.stats(self.relation).max_contribution

    @property
    def cache_size(self) -> int:
        """Cached row count, maintained incrementally (this gauge feeds
        every admission check, so it must not rescan the cache)."""
        return self._cached_rows

    def clear_cache(self) -> int:
        """Drop cached probe results; returns tuples freed (eviction)."""
        freed = self._cached_rows
        self._cache.clear()
        self._cached_rows = 0
        return freed

    def _delay(self, mean: float) -> float:
        if self.delays.deterministic:
            return mean
        return poisson_delay(self._rng, mean)

    def __repr__(self) -> str:
        return f"RandomAccessSource({self.name!r} on {self.relation!r})"


class ListSource:
    """A streaming source backed by an in-memory list of STuples.

    Used for two purposes: (a) the *recovery queries* of Section 6.2,
    whose streaming input is the linked list of tuples a hash table
    accumulated before the current epoch -- already in arrival (= score)
    order and already paid for, so reads are free; and (b) unit tests.
    """

    def __init__(self, name: str, tuples: Sequence[STuple],
                 metrics: Metrics | None = None) -> None:
        self.name = name
        self._tuples = list(tuples)
        for earlier, later in zip(self._tuples, self._tuples[1:]):
            if later.intrinsic > earlier.intrinsic + 1e-12:
                raise DataError(
                    f"ListSource {name!r} requires nonincreasing scores; "
                    f"got {earlier.intrinsic} before {later.intrinsic}"
                )
        self._position = 0
        self.metrics = metrics

    @property
    def tuples_read(self) -> int:
        return self._position

    @property
    def exhausted(self) -> bool:
        return self._position >= len(self._tuples)

    def bound(self) -> float:
        if self.exhausted:
            return EXHAUSTED
        return self._tuples[self._position].intrinsic

    def read(self) -> STuple | None:
        if self.exhausted:
            return None
        tup = self._tuples[self._position]
        self._position += 1
        if self.metrics is not None:
            # Free replays of already-paid-for state are *reuse*, not
            # input consumption: they must not count toward the
            # Figure 10 work measure.
            self.metrics.tuples_reused += 1
        return tup

    def remaining(self) -> int:
        return len(self._tuples) - self._position

    def __repr__(self) -> str:
        return f"ListSource({self.name!r}, read={self._position})"
