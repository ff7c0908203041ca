"""The ATC: the air-traffic-controller execution coordinator.

Section 4.2: each rank-merge operator wants tuples from its preferred
conjunctive-query stream, but those streams share inputs, so the ATC
"looks across the set of rank-merge operators' thresholds" and chooses
which source to read next.  The paper found a **round-robin** scheme
best: visit each rank-merge in turn, read one tuple from its preferred
stream's underlying base source, propagate the tuple through splits and
m-joins, and move on -- preventing starvation while approximating the
read-vote of the busiest streams.

The controller drives one plan graph to completion: every rank-merge
either emits its top-k or exhausts every relevant stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.atc.state_manager import QueryStateManager
from repro.common.errors import ExecutionError
from repro.operators.rankmerge import RankMerge
from repro.plan.graph import PlanGraph


@dataclass
class ATCController:
    """Round-robin scheduler over one plan graph's rank-merges."""

    graph: PlanGraph
    qs: QueryStateManager
    max_steps: int = 5_000_000

    def run_until(self, deadline: float | None,
                  stop: "Callable[[], bool] | None" = None) -> None:
        """Drive the graph until completion or until its virtual clock
        reaches ``deadline``.

        The deadline variant implements the paper's *continuous*
        operation: the engine executes the current queries only up to
        the next batch's dispatch time, then grafts the new queries
        onto the still-running plan graph (Section 6.2) and resumes.

        ``stop`` is an optional extra pause predicate, checked at the
        same points as the deadline; the streaming client API uses it
        to run the normal round-robin schedule only until one query's
        rank-merge emits.  A pause is not transparent: every call
        restarts the round at its first incomplete rank-merge, so the
        pause points shape the visit order, the work done and which of
        several tied answers a query emits.  The score vectors do not
        depend on them -- each is the exact top-k under any cadence.
        """
        steps = 0
        while True:
            if deadline is not None and self.graph.clock.now >= deadline:
                return
            if stop is not None and stop():
                return
            incomplete = self.graph.incomplete_rank_merges()
            if not incomplete:
                return
            schedule = self._schedule(incomplete)
            progressed = False
            for rm in schedule:
                if rm.complete:
                    continue
                steps += 1
                if steps > self.max_steps:
                    raise ExecutionError(
                        f"{self.graph.graph_id}: exceeded {self.max_steps} "
                        "scheduler steps; execution is not converging"
                    )
                progressed |= self._step(rm)
                if deadline is not None and \
                        self.graph.clock.now >= deadline:
                    return
                if stop is not None and stop():
                    return
            if not progressed:
                # Nothing is readable, activatable, or emittable: every
                # remaining candidate answer is final.
                for rm in self.graph.incomplete_rank_merges():
                    rm.finalize()
                    self.qs.finalize_uq_record(self.graph, rm)
                return

    def _schedule(self, incomplete: list[RankMerge]) -> list[RankMerge]:
        """Which rank-merges to visit this round, in what order.

        ``round_robin`` (the paper's pick: starvation-free, matches the
        read-vote of the busiest streams) serves every incomplete
        rank-merge once per round.  ``priority`` -- the ablation
        alternative -- serves only the rank-merge whose frontier is
        highest, which can starve queries whose thresholds lag.
        """
        if self.graph.config.scheduler == "round_robin":
            return incomplete
        best = max(incomplete, key=lambda rm: rm.frontier())
        return [best]

    def _step(self, rm: RankMerge) -> bool:
        """One round-robin visit; returns whether any progress happened."""
        progressed = False
        if self.qs.ensure_activation(self.graph, rm) > 0:
            self.graph.release_all()
            progressed = True
        if rm.try_emit():
            progressed = True
        if rm.complete:
            self._finish(rm)
            return True
        entry = rm.preferred_entry()
        if entry is None:
            # No readable active stream.  Pending CQs were either
            # activated above or pruned; if everything is drained, the
            # queue holds the final answer.
            if not rm.pending and rm.all_streams_done():
                rm.finalize()
                self._finish(rm)
                return True
            return progressed
        base = self.graph.descend_to_readable(entry.supplier)
        if base is None:
            # The preferred chain is exhausted upstream; drain gated
            # buffers so bounds collapse and emission can proceed.
            released = self.graph.release_all()
            emitted = rm.try_emit()
            if rm.complete:
                self._finish(rm)
                return True
            return progressed or bool(released) or bool(emitted)
        tup = base.read_and_route(self.graph.epoch)
        self.graph.release_all()
        rm.try_emit()
        if rm.complete:
            self._finish(rm)
        return True if tup is not None else progressed

    def _finish(self, rm: RankMerge) -> None:
        self.qs.on_complete(self.graph, rm)
        self.qs.finalize_uq_record(self.graph, rm)
