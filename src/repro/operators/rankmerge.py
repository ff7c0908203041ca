"""The rank-merge operator (Section 4.1, Figure 6).

One rank-merge per user query.  It merges the output streams of the
user query's conjunctive queries into the top-k answer list, following
the Threshold / No-Random-Access algorithm family of Fagin et al. [7]:

* each CQ stream carries a *threshold* -- an upper bound on the score
  of the next tuple that stream can deliver, derived from the stream's
  intrinsic bound through the CQ's score function;
* a priority queue holds the highest-scoring tuples seen so far;
* the operator emits the top queued tuple once its score is at least
  every stream's threshold (no unseen tuple can beat it), and
* it asks the ATC to read next from the stream whose threshold is
  highest (the read that drops the frontier the most).

Beyond plain TA, the rank-merge drives the paper's *lazy CQ
activation* (the QS manager "incrementally takes the highest-scoring
conjunctive queries ... as execution progresses and the maximum score
of the next result drops, further conjunctive queries can be
activated") and its *pruning* rule ("once a conjunctive query ... can
no longer contribute to top-k output -- its threshold is lower than the
kth tuple in the ranking queue -- it gets unlinked and deactivated",
Section 6.3).  Recovery queries (Algorithm 2) register here as extra
streams for their CQ, "just another ranked input".
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

from repro.common.errors import ExecutionError
from repro.data.rows import STuple
from repro.keyword.queries import ConjunctiveQuery, RankedAnswer, UserQuery
from repro.operators.nodes import Supplier

_EPSILON = 1e-9


@dataclass
class CQStreamEntry:
    """One registered input stream: a CQ's live plan or a recovery query."""

    stream_id: str
    cq: ConjunctiveQuery
    supplier: Supplier
    kind: str = "live"
    active: bool = True
    delivered: int = 0

    def threshold(self) -> float:
        """Upper bound on the score of this stream's next tuple."""
        return self.cq.score.bound_from_intrinsic(self.supplier.bound())

    @property
    def exhausted(self) -> bool:
        return self.supplier.bound() == -math.inf


class _EntryAdapter:
    """Consumer adapter wiring one supplier port into the rank-merge."""

    def __init__(self, merge: "RankMerge", entry: CQStreamEntry) -> None:
        self.merge = merge
        self.entry = entry

    def on_arrival(self, supplier: Supplier, tup: STuple) -> None:
        self.merge.ingest(self.entry, tup)

    def on_supplier_bound_dirty(self) -> None:
        """The stream's bound moved: queue a threshold recompute."""
        self.merge._thr_dirty.add(self.entry.stream_id)


class _TopKTracker:
    """Min-heap of the best ``size`` scores seen, with lazy deletion.

    Maintains the pruning frontier (the k-th ranked score of Section
    6.3) incrementally, replacing the ``heapq.nsmallest`` full-heap
    rescan the rank-merge used to run after every emission.  Deleted
    scores are maxima at deletion time, so they sink in the min-heap
    and are settled out only when they surface.
    """

    __slots__ = ("_heap", "_deleted", "size")

    def __init__(self) -> None:
        self._heap: list[float] = []
        self._deleted: dict[float, int] = {}
        self.size = 0

    def _settle(self) -> None:
        heap, deleted = self._heap, self._deleted
        while heap:
            pending = deleted.get(heap[0], 0)
            if not pending:
                return
            value = heapq.heappop(heap)
            if pending == 1:
                del deleted[value]
            else:
                deleted[value] = pending - 1

    def push(self, value: float) -> None:
        heapq.heappush(self._heap, value)
        self.size += 1

    def peek_min(self) -> float:
        self._settle()
        return self._heap[0]

    def pop_min(self) -> float:
        self._settle()
        self.size -= 1
        return heapq.heappop(self._heap)

    def remove(self, value: float) -> None:
        """Logically delete one instance of ``value`` (must be present)."""
        self._deleted[value] = self._deleted.get(value, 0) + 1
        self.size -= 1


@dataclass
class _Candidate:
    score: float
    answer: RankedAnswer
    tup: STuple = field(repr=False)


class RankMerge:
    """Top-k merge over a user query's conjunctive-query streams."""

    def __init__(self, uq: UserQuery, clock=None) -> None:
        self.uq = uq
        self.k = uq.k
        self.entries: dict[str, CQStreamEntry] = {}
        #: CQs optimized but not yet instantiated in the plan graph,
        #: highest upper bound first.
        self.pending: list[ConjunctiveQuery] = list(uq.cqs)
        self.emitted: list[_Candidate] = []
        self._heap: list[tuple[float, int, _Candidate]] = []
        self._counter = itertools.count()
        self._seen: set[tuple[str, frozenset]] = set()
        self.complete = False
        self.activations = 0
        #: The plan graph's virtual clock (optional; the engine wires
        #: it so the first emission can be timestamped for TTFA).
        self._clock = clock
        #: Virtual instant the first answer left this operator, or
        #: ``None`` -- the time-to-first-answer anchor.
        self.first_emitted_at: float | None = None
        #: Set when the query was retired early ("cancelled" or
        #: "expired") rather than emitting its full top-k; the service
        #: harvest reads it to classify the handle's terminal state.
        self.terminated: str | None = None
        #: Incremental threshold maintenance: a lazy max-heap over the
        #: entries' thresholds.  Stream-bound changes mark entries dirty
        #: (via their adapters); queries flush the dirty set and settle
        #: stale heap tops, so ``preferred_entry`` / the frontier cost
        #: O(log n) amortized instead of re-walking every stream's plan
        #: chain.  Heap items are ``(-threshold, registration_seq,
        #: stream_id)``; the seq preserves the original first-registered
        #: tie-break.
        self._thr_heap: list[tuple[float, int, str]] = []
        self._thr_cached: dict[str, float] = {}
        self._thr_dirty: set[str] = set()
        self._thr_seq: dict[str, int] = {}
        #: Maintained top-(k - emitted) frontier over queued candidates.
        self._topk = _TopKTracker()
        #: Cached ``max_pending_bound`` (pending mutates rarely).
        self._pending_bound = max(
            (cq.upper_bound for cq in self.pending), default=-math.inf)

    # -- registration ---------------------------------------------------------

    def register_stream(self, cq: ConjunctiveQuery, supplier: Supplier,
                        kind: str = "live") -> CQStreamEntry:
        """Attach a supplier as a stream for ``cq``; returns the entry.

        The CQ is removed from the pending list on its first (live)
        registration.  The returned entry's adapter is appended to the
        supplier's consumers, so tuple flow starts immediately.
        """
        suffix = kind if kind != "live" else "live"
        stream_id = f"{cq.cq_id}:{suffix}:{len(self.entries)}"
        entry = CQStreamEntry(stream_id, cq, supplier, kind=kind)
        self._thr_seq[stream_id] = len(self.entries)
        self.entries[stream_id] = entry
        self._thr_dirty.add(stream_id)
        supplier.consumers.append(_EntryAdapter(self, entry))
        if kind == "live":
            self.pending = [p for p in self.pending if p.cq_id != cq.cq_id]
            self._recompute_pending_bound()
            self.activations += 1
        return entry

    def _recompute_pending_bound(self) -> None:
        self._pending_bound = max(
            (cq.upper_bound for cq in self.pending), default=-math.inf)

    # -- data flow ---------------------------------------------------------------

    def ingest(self, entry: CQStreamEntry, tup: STuple) -> None:
        """Receive one result tuple from a CQ stream."""
        if self.complete:
            return
        provenance = tup.provenance
        key = (entry.cq.cq_id, provenance)
        if key in self._seen:
            return
        self._seen.add(key)
        entry.delivered += 1
        score = entry.cq.score.score(tup)
        candidate = _Candidate(
            score=score,
            answer=RankedAnswer(self.uq.uq_id, entry.cq.cq_id, score,
                                provenance),
            tup=tup,
        )
        heapq.heappush(self._heap, (-score, next(self._counter), candidate))
        needed = self.k - len(self.emitted)
        if needed > 0:
            topk = self._topk
            if topk.size < needed:
                topk.push(score)
            elif score > topk.peek_min():
                topk.pop_min()
                topk.push(score)

    # -- thresholds -----------------------------------------------------------------

    def active_entries(self) -> list[CQStreamEntry]:
        return [e for e in self.entries.values() if e.active]

    def _flush_thresholds(self) -> None:
        """Recompute the thresholds of dirty entries into the lazy heap."""
        if not self._thr_dirty:
            return
        for stream_id in self._thr_dirty:
            entry = self.entries[stream_id]
            threshold = entry.threshold()
            self._thr_cached[stream_id] = threshold
            heapq.heappush(self._thr_heap,
                           (-threshold, self._thr_seq[stream_id], stream_id))
        self._thr_dirty.clear()
        if len(self._thr_heap) > 4 * len(self.entries) + 64:
            # Compact stale residue so the heap stays O(entries).
            self._thr_heap = [
                (-t, self._thr_seq[sid], sid)
                for sid, t in self._thr_cached.items()
                if self.entries[sid].active
            ]
            heapq.heapify(self._thr_heap)

    def max_active_threshold(self) -> float:
        self._flush_thresholds()
        heap = self._thr_heap
        while heap:
            neg_t, _seq, stream_id = heap[0]
            if (self._thr_cached[stream_id] != -neg_t
                    or not self.entries[stream_id].active):
                heapq.heappop(heap)   # stale value / deactivated forever
                continue
            return -neg_t
        return -math.inf

    def max_pending_bound(self) -> float:
        return self._pending_bound

    def frontier(self) -> float:
        """The emission gate: no unseen tuple can score above this."""
        return max(self.max_active_threshold(), self._pending_bound)

    def kth_ranked_score(self) -> float:
        """Score of the k-th best tuple currently known (emitted or
        queued); ``-inf`` if fewer than k are known.  This is the
        pruning frontier of Section 6.3, read off the maintained
        top-k tracker in O(1)."""
        needed = self.k - len(self.emitted)
        if needed <= 0:
            return self.emitted[-1].score if self.emitted else -math.inf
        if len(self._heap) < needed:
            return -math.inf
        return self._topk.peek_min()

    # -- control decisions -------------------------------------------------------------

    def should_activate(self) -> bool:
        """Whether the emission frontier is currently held up by a CQ
        that has not started executing (so the QS manager must graft
        it)."""
        if self.complete or not self.pending:
            return False
        pending_bound = self.max_pending_bound()
        kth = self.kth_ranked_score()
        if pending_bound <= kth + _EPSILON:
            # No pending CQ can beat what we already hold: they will be
            # pruned, not activated.
            return False
        active_bound = self.max_active_threshold()
        top = self.peek_score()
        if top is not None and top + _EPSILON >= self.frontier():
            return False  # we can emit without activating anything
        return pending_bound > active_bound - _EPSILON

    def next_pending(self) -> ConjunctiveQuery:
        if not self.pending:
            raise ExecutionError(f"{self.uq.uq_id}: no pending CQs left")
        return self.pending[0]

    def peek_score(self) -> float | None:
        if not self._heap:
            return None
        return -self._heap[0][0]

    def preferred_entry(self) -> CQStreamEntry | None:
        """The active, non-exhausted stream with the highest threshold:
        the read the paper says "will drop the score threshold the
        most".  O(log n) amortized off the maintained threshold heap;
        ties go to the earliest-registered entry, matching the original
        scan order."""
        self._flush_thresholds()
        heap = self._thr_heap
        while heap:
            neg_t, seq, stream_id = heap[0]
            entry = self.entries[stream_id]
            if self._thr_cached[stream_id] != -neg_t or not entry.active:
                heapq.heappop(heap)
                continue
            if neg_t == math.inf:
                # Exhausted (and any other -inf-threshold) streams are
                # never preferred; nothing above them remains either.
                return None
            if entry.exhausted:
                # Stale cache: plan-graph suppliers push invalidations,
                # but a duck-typed supplier that drained silently must
                # not deadlock the scheduler.  Refresh and re-settle.
                threshold = entry.threshold()
                self._thr_cached[stream_id] = threshold
                heapq.heappush(heap, (-threshold, seq, stream_id))
                continue
            return entry
        return None

    # -- emission ---------------------------------------------------------------------

    def _note_emission(self) -> None:
        if self.first_emitted_at is None and self._clock is not None:
            self.first_emitted_at = self._clock.now

    def terminate(self, how: str) -> None:
        """Retire the query early (``"cancelled"`` or ``"expired"``):
        mark the merge complete with whatever has been emitted so far.
        Stream unlinking is the state manager's job; this only settles
        the operator's own lifecycle."""
        if self.complete:
            return
        self.terminated = how
        self.complete = True

    def try_emit(self) -> list[RankedAnswer]:
        """Emit every queued tuple whose score clears the frontier."""
        out: list[RankedAnswer] = []
        while not self.complete and self._heap:
            top_score = -self._heap[0][0]
            if top_score + _EPSILON < self.frontier():
                break
            _neg, _seq, candidate = heapq.heappop(self._heap)
            if self.k - len(self.emitted) > 0:
                # The emitted candidate is the queued maximum, so it is
                # tracked; shrink the frontier window with it.
                self._topk.remove(candidate.score)
            self.emitted.append(candidate)
            out.append(candidate.answer)
            if len(self.emitted) >= self.k:
                self.complete = True
        if out:
            self._note_emission()
        self._prune_useless()
        return out

    def _prune_useless(self) -> None:
        """Deactivate streams and drop pending CQs that can no longer
        contribute to the top-k."""
        kth = self.kth_ranked_score()
        if kth == -math.inf:
            return
        self._flush_thresholds()
        for entry in self.active_entries():
            if self._thr_cached[entry.stream_id] + _EPSILON < kth:
                entry.active = False
        if any(cq.upper_bound + _EPSILON < kth for cq in self.pending):
            self.pending = [
                cq for cq in self.pending if cq.upper_bound + _EPSILON >= kth
            ]
            self._recompute_pending_bound()

    def finalize(self) -> list[RankedAnswer]:
        """Flush when every stream is exhausted and nothing is pending:
        the remaining queue *is* the rest of the answer."""
        out: list[RankedAnswer] = []
        while self._heap and len(self.emitted) < self.k:
            _neg, _seq, candidate = heapq.heappop(self._heap)
            self.emitted.append(candidate)
            out.append(candidate.answer)
        if out:
            self._note_emission()
        self.complete = True
        return out

    def all_streams_done(self) -> bool:
        return all(e.exhausted or not e.active
                   for e in self.entries.values())

    @property
    def answers(self) -> list[RankedAnswer]:
        return [c.answer for c in self.emitted]

    def __repr__(self) -> str:
        return (f"RankMerge({self.uq.uq_id}, emitted={len(self.emitted)}/"
                f"{self.k}, streams={len(self.entries)}, "
                f"pending={len(self.pending)}, complete={self.complete})")
