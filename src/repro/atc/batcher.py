"""The query batcher (Section 3).

Conjunctive queries arrive as ``(UQ, CQ, C)`` triples in nonincreasing
order of their score bound; the batcher "typically waits for these
conjunctive queries to collect over a small time interval before it
passes them along" to the optimizer.  We batch at user-query
granularity: user queries are ordered by arrival time and grouped into
batches of ``batch_size`` whose members arrived within ``window``
virtual seconds of the batch opener; a batch's *dispatch time* is its
last member's arrival (the optimizer cannot run before the queries
exist).

Figure 9 compares ``batch_size=1`` (SINGLE-OPT: every user query
optimized in isolation) against ``batch_size=5`` (BATCH-OPT, the
paper's default).

Two consumption styles coexist:

* :meth:`QueryBatcher.drain` -- the offline/batch path: form batches
  from *everything* submitted so far, closing a batch when it fills or
  when the next query's arrival falls outside the window.  Because the
  whole stream is known, a partial batch dispatches at its last
  member's arrival.
* :meth:`QueryBatcher.pop_ready` -- the online path used by the
  continuous service: given the current virtual time, return only the
  batches that have *closed* by then (full, or collection window
  expired) and keep the rest pending.  A window-expired partial batch
  dispatches at ``opened_at + window`` -- online, nobody knows that no
  further query is coming, so the batcher genuinely waits the window
  out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.keyword.queries import UserQuery


@dataclass
class Batch:
    """One optimizer invocation's worth of user queries.

    ``closed_at`` is set by the online path when a batch is closed by
    window expiry rather than by filling up: the optimizer then runs at
    the expiry instant, not at the last member's arrival.
    """

    index: int
    uqs: list[UserQuery]
    closed_at: float | None = None

    @property
    def dispatch_time(self) -> float:
        if self.closed_at is not None:
            return self.closed_at
        return max((uq.arrival for uq in self.uqs), default=0.0)

    def __repr__(self) -> str:
        return (f"Batch({self.index}, uqs={[u.uq_id for u in self.uqs]}, "
                f"dispatch={self.dispatch_time:.2f}s)")


@dataclass
class QueryBatcher:
    """Groups user queries into dispatchable batches."""

    batch_size: int = 5
    window: float = 30.0
    _pending: list[UserQuery] = field(default_factory=list)
    _next_index: int = 0

    def submit(self, uq: UserQuery) -> None:
        self._pending.append(uq)

    @property
    def pending_count(self) -> int:
        """User queries submitted but not yet handed to the optimizer."""
        return len(self._pending)

    @property
    def batches_closed(self) -> int:
        """Batches handed to the optimizer so far (batch indices are
        dense, so the next index is also the closed count)."""
        return self._next_index

    def remove(self, uq_id: str) -> UserQuery | None:
        """Withdraw a still-collecting user query (cancellation before
        dispatch); returns it, or ``None`` if it already batched."""
        for i, uq in enumerate(self._pending):
            if uq.uq_id == uq_id:
                return self._pending.pop(i)
        return None

    def _close(self, uqs: list[UserQuery],
               closed_at: float | None = None) -> Batch:
        batch = Batch(self._next_index, uqs, closed_at=closed_at)
        self._next_index += 1
        return batch

    def drain(self) -> list[Batch]:
        """Form batches from everything submitted so far.

        Queries are taken in arrival order; a batch closes when it
        reaches ``batch_size`` members or when the next query arrived
        more than ``window`` seconds after the batch opener.
        """
        ordered = sorted(self._pending, key=lambda u: (u.arrival, u.uq_id))
        self._pending = []
        batches: list[Batch] = []
        current: list[UserQuery] = []
        opened_at = 0.0
        for uq in ordered:
            if not current:
                current = [uq]
                opened_at = uq.arrival
                continue
            if (len(current) >= self.batch_size
                    or uq.arrival - opened_at > self.window):
                batches.append(self._close(current))
                current = [uq]
                opened_at = uq.arrival
            else:
                current.append(uq)
        if current:
            batches.append(self._close(current))
        return batches

    def pop_ready(self, now: float) -> list[Batch]:
        """Return the batches that have closed by virtual time ``now``.

        Only queries that have already arrived (``arrival <= now``) are
        considered.  A batch closes online when it reaches
        ``batch_size`` members (dispatching at the closing member's
        arrival) or when ``now`` passes the opener's arrival plus
        ``window`` (dispatching at that expiry).  Queries in a batch
        that is still collecting remain pending for a later call --
        this is what lets the continuous service interleave admission
        with execution instead of requiring the full workload up front.
        """
        due = sorted((u for u in self._pending if u.arrival <= now),
                     key=lambda u: (u.arrival, u.uq_id))
        later = [u for u in self._pending if u.arrival > now]
        batches: list[Batch] = []
        current: list[UserQuery] = []
        opened_at = 0.0
        for uq in due:
            if current and uq.arrival - opened_at > self.window:
                batches.append(self._close(
                    current, closed_at=opened_at + self.window))
                current = []
            if not current:
                current = [uq]
                opened_at = uq.arrival
            else:
                current.append(uq)
            if len(current) >= self.batch_size:
                batches.append(self._close(current))
                current = []
        if current:
            if now - opened_at > self.window:
                batches.append(self._close(
                    current, closed_at=opened_at + self.window))
            else:
                later = current + later
        self._pending = later
        return batches
