"""Time, behind one interface.

The paper measures wall-clock latencies that are dominated by simulated
wide-area delays (Poisson, 2 ms mean per tuple read and per remote
probe).  Re-running those experiments with real sleeps would make every
benchmark take hours and be non-deterministic, so this module provides a
**virtual clock**: a monotone counter of simulated seconds that every
source read, remote probe, and join probe advances explicitly.

A :class:`VirtualClock` belongs to one ATC (one query plan graph): all
work scheduled on that graph is serialized on its clock, which is
exactly how the paper's single-threaded-per-graph middleware behaves and
is what produces the contention effect of Section 7.1.  Separate plan
graphs (the ATC-CL and ATC-CQ/UQ configurations) own separate clocks and
therefore proceed in parallel, subject to query arrival times.

The *serving* tier additionally needs real time: an HTTP front end's
arrival instants come from the operating system, not from a replayed
trace.  Both clock families implement the :class:`Clock` protocol --
``now``, ``advance``, ``advance_to`` -- so the service code is written
once against the protocol and a :class:`WallClock` (backed by
``time.monotonic``) can stand in for the virtual one.  ``WallClock``
keeps the same monotonicity contract by maintaining a *floor*: real
time flows on its own, and ``advance``/``advance_to`` can only push the
floor forward (never back), so ``now`` is non-decreasing under any
interleaving of reads and advances -- the property the virtual-clock
call sites rely on.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """The one time contract the serving tier is written against.

    ``now`` is non-decreasing; ``advance`` moves it forward by a
    non-negative delta and ``advance_to`` moves it forward to an
    instant (a past instant is a no-op).  :class:`VirtualClock`
    implements it with an explicit counter, :class:`WallClock` with
    ``time.monotonic`` plus a floor.
    """

    @property
    def now(self) -> float: ...

    def advance(self, seconds: float) -> float: ...

    def advance_to(self, timestamp: float) -> float: ...


class VirtualClock:
    """A monotone simulated-time counter measured in seconds."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start before zero, got {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` (>= 0) and return the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds} (< 0)")
        self._now += seconds
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to ``timestamp`` if it is in the future.

        Used when a query *arrives* later than the clock's current
        position: the ATC was idle in between, so time jumps rather than
        accumulating work.  Moving to a past timestamp is a no-op (the
        ATC was busy past that point).
        """
        if timestamp > self._now:
            self._now = timestamp
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VirtualClock(now={self._now:.6f})"


class WallClock:
    """Real time with the virtual clock's monotonicity contract.

    ``now`` reads ``time.monotonic`` relative to the clock's origin,
    but never falls below the *floor* that ``advance``/``advance_to``
    maintain: advancing a wall clock declares "this much time is
    already spent", exactly as on the virtual clock, and real time
    catches up on its own.  This keeps every service code path --
    deadline sweeps, cache TTLs, arrival clamping -- valid on both
    clock families, and makes ``WallClock`` satisfy the same
    monotonicity properties ``VirtualClock`` is tested for.
    """

    __slots__ = ("_origin", "_floor")

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start before zero, got {start}")
        self._origin = time.monotonic() - float(start)
        self._floor = float(start)

    @property
    def now(self) -> float:
        """Elapsed real seconds since the origin, at least the floor."""
        return max(time.monotonic() - self._origin, self._floor)

    def advance(self, seconds: float) -> float:
        """Raise the floor ``seconds`` (>= 0) past the current instant
        and return the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds} (< 0)")
        self._floor = self.now + seconds
        return self._floor

    def advance_to(self, timestamp: float) -> float:
        """Raise the floor to ``timestamp`` if it is in the future;
        a past instant is a no-op (real time already covered it)."""
        if timestamp > self._floor:
            self._floor = timestamp
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WallClock(now={self.now:.6f})"


def wall_timer() -> float:
    """The sanctioned real-time source for *observability* timings.

    Trace spans and optimizer wall-time records measure how long this
    process actually worked, which is real time by definition and never
    feeds an answer.  Those sites use this timer instead of reaching
    for :func:`time.perf_counter` directly, so ``repro lint``'s
    clock-discipline rule can keep every other OS-clock access out of
    the codebase: anything that *can* influence an answer must go
    through a :class:`Clock`.
    """
    return time.perf_counter()


class StopWatch:
    """Accumulates intervals of virtual time under a label.

    The execution-time breakdown of Figure 8 (stream read time, random
    access time, join time) is assembled from stopwatches: operators
    bracket each category of work with :meth:`start`/:meth:`stop` or use
    :meth:`add` for pre-computed durations.
    """

    __slots__ = ("label", "total", "_started_at")

    def __init__(self, label: str) -> None:
        self.label = label
        self.total = 0.0
        self._started_at: float | None = None

    def start(self, clock: Clock) -> None:
        if self._started_at is not None:
            raise RuntimeError(f"stopwatch {self.label!r} already running")
        self._started_at = clock.now

    def stop(self, clock: Clock) -> float:
        if self._started_at is None:
            raise RuntimeError(f"stopwatch {self.label!r} is not running")
        elapsed = clock.now - self._started_at
        self._started_at = None
        self.total += elapsed
        return elapsed

    def add(self, seconds: float) -> None:
        """Accumulate a duration measured externally."""
        if seconds < 0:
            raise ValueError(f"cannot add negative duration {seconds}")
        self.total += seconds
