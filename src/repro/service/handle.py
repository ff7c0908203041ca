"""The client API: one streaming, cancellable query protocol.

The Q System is *continuously operating* middleware (Section 2): ranked
answers trickle out of the rank-merge operators while later queries are
still arriving, and real keyword-search front ends (Mragyati's web
gateway, Qunits' user-facing result units) deliver those answers
incrementally and drop abandoned requests.

This module defines the service-facing protocol both
:class:`~repro.service.server.QService` and
:class:`~repro.service.sharding.ShardedQService` implement:

* :class:`QueryServiceProtocol` -- the typed contract: ``submit``
  returns a :class:`QueryHandle`, plus ``cancel``, ``step``, ``drain``,
  ``report``, and ``run``;
* :class:`QueryHandle` -- the client's receipt and remote control for
  one query: a :class:`QueryStatus` lifecycle, progressive consumption
  via :meth:`~QueryHandle.answers_so_far` and the incremental
  :meth:`~QueryHandle.results` iterator (answers stream out as the
  rank-merge emits them, not only at harvest), :meth:`~QueryHandle.
  cancel`, and an optional per-query ``deadline``;
* :func:`run_stream` -- drive one arrival stream (with an optional
  abandonment schedule) through any conforming service.

Lifecycle::

    PENDING -> IN_FLIGHT ----------------> DONE
        |          |                        ^
        |          +--> CANCELLED/EXPIRED   |
        +--> DEFERRED --> (IN_FLIGHT | CANCELLED | EXPIRED | REJECTED)
        +--> REJECTED

Terminal-state contract (see :meth:`QueryHandle.latency`):

* ``DONE`` -- the full top-k was served; ``latency`` is defined.
* ``REJECTED`` -- shed by admission control; no answers, no latency.
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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from repro.common.clock import Clock
    from repro.keyword.queries import KeywordQuery, RankedAnswer


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
    shard: int | None = None  # set by the sharded service's router
    uq_id: str | None = None
    answers: list["RankedAnswer"] | None = None
    completed_at: float | None = None
    reason: str = ""
    deadline: float | None = None
    #: Back-reference to the owning service, set at submit; excluded
    #: from comparison and repr (two handles are the same query if
    #: their observable fields agree, whoever serves them).
    service: "QueryServiceProtocol | None" = field(
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
        while in-flight work remains that could free the admission
        budget; if the service provably cannot progress it (nothing
        running, budget gauge stuck), the iterator ends early with the
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
        tracer (the zero-overhead default) or the handle is detached."""
        if self.service is None:
            return None
        return self.service.trace_of(self)

    def __repr__(self) -> str:
        return (f"QueryHandle({self.kq_id}, {self.status.value}"
                f"{f' via {self.via}' if self.via else ''})")


@runtime_checkable
class QueryServiceProtocol(Protocol):
    """The one serving contract, implemented by the single-node
    :class:`~repro.service.server.QService` and the sharded
    :class:`~repro.service.sharding.ShardedQService` alike.

    A conforming service admits queries along an arrival stream, hands
    back live :class:`QueryHandle` objects, streams per-query answers
    progressively, honours ``cancel`` and per-query deadlines, and
    renders one report type.  Arrival instants are read off the
    service's ``clock`` -- a deterministic
    :class:`~repro.common.clock.VirtualClock` by default, a
    :class:`~repro.common.clock.WallClock` when serving real traffic
    (the HTTP front end, :mod:`repro.service.http`)."""

    #: The service's time source (shared fleet-wide when sharded).
    clock: "Clock"

    def submit(self, kq: "KeywordQuery", arrival: float | None = None, *,
               deadline: float | None = None) -> QueryHandle:
        """Admit one query; returns its live handle."""
        ...

    def cancel(self, handle: QueryHandle) -> bool:
        """Retire ``handle``'s query without disturbing shared work."""
        ...

    def answers_so_far(self, handle: QueryHandle) -> list["RankedAnswer"]:
        """The handle's progressive emission (empty if none yet)."""
        ...

    def pump(self, handle: QueryHandle) -> bool:
        """Drive the service until ``handle`` gains an answer or ends;
        returns whether anything changed (the ``results()`` engine)."""
        ...

    def step(self, until: float) -> None:
        """Advance virtual time: execute, harvest, enforce deadlines."""
        ...

    def drain(self):
        """Finish every admitted query; returns the service report."""
        ...

    def report(self):
        """Snapshot the current service report."""
        ...

    def trace_of(self, handle: QueryHandle):
        """The handle's span tree, or ``None`` when tracing is off."""
        ...

    def metrics_registry(self):
        """The service's metric namespace with collectors refreshed
        (the sharded service returns the shard-labelled fleet merge)."""
        ...


def run_stream(service: QueryServiceProtocol,
               load: Iterable["KeywordQuery"],
               cancellations: dict[str, float] | None = None):
    """Serve one open-loop arrival stream end to end.

    ``cancellations`` maps ``kq_id`` to the virtual instant the client
    abandons that query (the load generator's abandonment model emits
    such a schedule); each due cancellation is applied at its instant,
    interleaved with the arrivals.  Returns the drained report.
    """
    cancels = sorted((cancellations or {}).items(), key=lambda kv: kv[1])
    handles: dict[str, QueryHandle] = {}

    def fire_due(now: float | None) -> None:
        while cancels and (now is None or cancels[0][1] <= now):
            kq_id, at = cancels.pop(0)
            handle = handles.get(kq_id)
            if handle is None or handle.terminal:
                continue
            service.step(at)
            handle.cancel()

    for kq in sorted(load, key=lambda q: q.arrival):
        fire_due(kq.arrival)
        handles[kq.kq_id] = service.submit(kq)
    fire_due(None)
    return service.drain()
