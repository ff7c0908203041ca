"""The client API: one streaming, cancellable query protocol.

The Q System is *continuously operating* middleware (Section 2): ranked
answers trickle out of the rank-merge operators while later queries are
still arriving, and real keyword-search front ends (Mragyati's web
gateway, Qunits' user-facing result units) deliver those answers
incrementally and drop abandoned requests.

Clients talk to one front door
(:class:`~repro.service.sharding.ShardedQService`; the single-node
:class:`~repro.service.server.QService` is that front door over one
shard), whichever shard -- in this process or in its own -- serves the
query.  Its ``submit`` returns a :class:`QueryHandle`: the client's
receipt and remote control for one query, with a :class:`QueryStatus`
lifecycle, progressive consumption via
:meth:`~QueryHandle.answers_so_far` and the incremental
:meth:`~QueryHandle.results` iterator (answers stream out as the
rank-merge emits them, not only at harvest), :meth:`~QueryHandle.
cancel`, and an optional per-query ``deadline``.  Every handle answers
to the front door, which forwards to the owning shard.

Lifecycle::

    PENDING -> IN_FLIGHT ----------------> DONE
        |          |                        ^
        |          +--> CANCELLED/EXPIRED   |
        +--> DEFERRED --> (IN_FLIGHT | CANCELLED | EXPIRED)
        +--> REJECTED

Terminal-state contract (see :meth:`QueryHandle.latency`):

* ``DONE`` -- the full top-k was served; ``latency`` is defined.
* ``REJECTED`` -- shed by admission control on arrival (a deferred
  query is never shed); no answers, no latency.
* ``CANCELLED`` -- the client abandoned it; ``answers`` holds whatever
  had been emitted by then, ``latency`` is ``None``.
* ``EXPIRED`` -- its deadline fired first; like ``CANCELLED`` but
  initiated by the service's deadline enforcement.
* ``FAILED`` -- the serving infrastructure lost the query (the shard's
  worker *process* died with it in flight); ``reason`` names the
  crash, ``answers`` holds whatever had streamed out before.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.keyword.queries import RankedAnswer
    from repro.service.sharding import ShardedQService


class QueryStatus(str, enum.Enum):
    """Where one submitted query stands in its lifecycle.

    A ``str`` subclass, so comparing against the plain status strings
    -- ``handle.status == "done"`` -- works, and a status travels over
    the wire and into JSON as its value.
    """

    PENDING = "pending"
    IN_FLIGHT = "in-flight"
    DEFERRED = "deferred"
    REJECTED = "rejected"
    DONE = "done"
    CANCELLED = "cancelled"
    EXPIRED = "expired"
    FAILED = "failed"

    __str__ = str.__str__

    @property
    def terminal(self) -> bool:
        """No further transition will happen from this state."""
        return self in _TERMINAL


_TERMINAL = frozenset({QueryStatus.REJECTED, QueryStatus.DONE,
                       QueryStatus.CANCELLED, QueryStatus.EXPIRED,
                       QueryStatus.FAILED})


@dataclass
class QueryHandle:
    """The service's receipt for -- and the client's remote control
    over -- one submitted keyword query.

    ``answers`` / ``completed_at`` are filled when the handle reaches a
    terminal state; while the query is in flight,
    :meth:`answers_so_far` reads the engine's progressive emission and
    :meth:`results` consumes it as an iterator.  ``deadline`` is an
    absolute virtual-time instant; the service retires the query (as
    ``EXPIRED``, keeping its answers-so-far) if it has not completed by
    then.
    """

    kq_id: str
    keywords: tuple[str, ...]
    k: int
    arrival: float
    status: QueryStatus = QueryStatus.PENDING
    via: str | None = None   # engine | cache | coalesced | empty
    shard: int | None = None  # serving shard; None: the front door
    uq_id: str | None = None
    answers: list["RankedAnswer"] | None = None
    completed_at: float | None = None
    reason: str = ""
    deadline: float | None = None
    #: Back-reference to the front door that issued it, set at submit;
    #: excluded from comparison and repr (two handles are the same
    #: query if their observable fields agree, whoever serves them).
    service: "ShardedQService | None" = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.status = QueryStatus(self.status)

    # -- lifecycle ----------------------------------------------------------

    @property
    def done(self) -> bool:
        """The full answer was served (``DONE`` -- not merely ended:
        cancelled/expired/rejected handles are terminal but not done)."""
        return self.status is QueryStatus.DONE

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL

    @property
    def latency(self) -> float | None:
        """Arrival-to-answer in virtual seconds; defined only for
        ``DONE`` handles.

        * rejected: ``None`` (never served);
        * deferred-then-served: measured from the original arrival, so
          the parked wait counts;
        * cache hit: ``0.0`` (served at the arrival instant);
        * cancelled / expired: ``None`` -- ``completed_at`` still
          records the termination instant, but a partial answer has no
          serving latency.
        """
        if self.status is not QueryStatus.DONE or self.completed_at is None:
            return None
        return max(self.completed_at - self.arrival, 0.0)

    # -- consumption --------------------------------------------------------

    def answers_so_far(self) -> list["RankedAnswer"]:
        """The ranked answers emitted for this query *so far*.

        Terminal handles return their final (possibly partial, for
        cancelled/expired) answer list; in-flight handles read the
        rank-merge's live emission through the owning service.  Never
        raises: a handle with no answers yet returns ``[]``.
        """
        if self.answers is not None:
            return list(self.answers)
        if self.service is None:
            return []
        return self.service.answers_so_far(self)

    def results(self) -> Iterator["RankedAnswer"]:
        """Iterate the query's ranked answers as they are produced.

        Yields every answer exactly once, in emission (rank) order.
        When the buffered emission is exhausted and the query is still
        live, the iterator *drives* the owning service forward (closing
        the query's batch and running its plan graph) until the next
        answer appears or the query ends -- so a client can consume
        top-k results progressively instead of waiting for harvest.
        The iterator ends when the handle reaches a terminal state (it
        drains whatever a cancelled/expired query had emitted first).
        A deferred query is pumped -- one batch window at a time --
        until completions free the in-flight gauge and a retry admits
        it (an empty shard always admits); if the service reports it
        cannot progress the query, the iterator ends early with the
        handle still non-terminal.
        """
        cursor = 0
        while True:
            snapshot = self.answers_so_far()
            while cursor < len(snapshot):
                yield snapshot[cursor]
                cursor += 1
            if self.terminal:
                return
            if self.service is None or not self.service.pump(self):
                if not self.terminal and cursor == len(self.answers_so_far()):
                    return  # blocked: nothing can progress this query
    # -- control ------------------------------------------------------------

    def cancel(self) -> bool:
        """Abandon the query.  Returns True if this call retired it
        (False when already terminal or detached from a service).
        Cancelling a coalesced query never kills the shared execution
        other queries still ride."""
        if self.terminal or self.service is None:
            return False
        return self.service.cancel(self)

    # -- observability ------------------------------------------------------

    def trace(self):
        """This query's span tree (:class:`~repro.obs.trace.
        QueryTrace`), or ``None`` when the serving side ran without a
        tracer (the no-op default) or the handle is detached."""
        if self.service is None:
            return None
        return self.service.trace_of(self)

    def __repr__(self) -> str:
        return (f"QueryHandle({self.kq_id}, {self.status.value}"
                f"{f' via {self.via}' if self.via else ''})")
