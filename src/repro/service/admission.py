"""Admission control.

The batch engine assumes every submitted query eventually runs; a
continuously operating service cannot -- under sustained overload the
plan graphs would accumulate rank-merges without bound.  The
admission controller is the valve: each incoming query is checked
against one gauge, the number of user queries currently in flight
(dispatched or queued, not yet completed), and is **accepted**,
**rejected** (shed immediately -- the open-loop client gets an error),
or **deferred** (parked in the service's retry queue until load
drops), depending on the configured policy.  Stored plan-graph state
is bounded where it lives, by the engine's LRU eviction under
``ExecutionConfig.memory_budget_tuples`` (Section 6.3), not here.
"""

from __future__ import annotations

from dataclasses import dataclass

ACCEPT = "accept"
REJECT = "reject"
DEFER = "defer"


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    action: str  # ACCEPT | REJECT | DEFER
    reason: str = ""

    @property
    def admitted(self) -> bool:
        return self.action == ACCEPT


class AdmissionController:
    """Budget gate over in-flight queries.

    ``max_in_flight`` bounds concurrently executing user queries;
    ``None`` disables the gauge.  ``policy`` selects what happens over
    budget: ``"reject"`` sheds the query, ``"defer"`` parks it for
    retry.

    The ``accepted``/``rejected``/``deferred`` counters record each
    query's *first* decision only: the service re-checks parked
    queries with :meth:`would_admit`, which never touches a counter,
    so the counts stay per-query no matter how often a deferred query
    is retried.
    """

    def __init__(self, max_in_flight: int | None = None,
                 policy: str = REJECT) -> None:
        if policy not in (REJECT, DEFER):
            raise ValueError(
                f"policy must be 'reject' or 'defer', got {policy!r}")
        if max_in_flight is not None and max_in_flight <= 0:
            raise ValueError(
                f"max_in_flight must be positive or None, got {max_in_flight}")
        self.max_in_flight = max_in_flight
        self.policy = policy
        self.accepted = 0
        self.rejected = 0
        self.deferred = 0

    def _over_budget_reason(self, in_flight: int) -> str:
        if (self.max_in_flight is not None
                and in_flight >= self.max_in_flight):
            return (f"in-flight budget exhausted "
                    f"({in_flight}/{self.max_in_flight})")
        return ""

    def would_admit(self, in_flight: int) -> bool:
        """Gauge check with no counter side effects (retry path)."""
        return not self._over_budget_reason(in_flight)

    def decide(self, in_flight: int) -> AdmissionDecision:
        """Check the gauge and record the decision."""
        reason = self._over_budget_reason(in_flight)
        if not reason:
            self.accepted += 1
            return AdmissionDecision(ACCEPT)
        if self.policy == DEFER:
            self.deferred += 1
            return AdmissionDecision(DEFER, reason)
        self.rejected += 1
        return AdmissionDecision(REJECT, reason)

    def snapshot(self) -> dict[str, float]:
        return {
            "accepted": float(self.accepted),
            "rejected": float(self.rejected),
            "deferred": float(self.deferred),
        }
