"""The query plan graph: one ATC's worth of operators and state.

A :class:`PlanGraph` owns everything a single ATC coordinates (Figure 3
of the paper): the input units (streaming sources + shared state
modules), the m-join nodes, the shared random-access sources, and the
rank-merge operators of the queries it serves (each until the engine
hands over the query's terminal record) -- plus the graph's virtual
clock, metrics,
and epoch counter.  The ATC-CL configuration runs several plan graphs
side by side on parallel clocks; every other configuration schedules
all queries through the single middleware graph (they differ in
sharing scope, not in parallelism).

The graph also implements the *descent* the ATC uses to turn a
rank-merge's preferred stream into a base read: follow the
corner-bound-attaining supplier chain down to a readable input unit.
"""

from __future__ import annotations

import random
from typing import Union

from repro.common.clock import VirtualClock
from repro.common.config import DelayModel, ExecutionConfig
from repro.common.errors import ExecutionError
from repro.common.rng import make_rng
from repro.data.database import Federation
from repro.data.sources import RandomAccessSource, StreamingSource
from repro.operators.nodes import InputUnit, MJoinNode, RecoveryUnit, Supplier
from repro.operators.rankmerge import RankMerge
from repro.plan.expressions import SPJ
from repro.obs.records import Metrics

AnySupplier = Union[InputUnit, MJoinNode, RecoveryUnit]


class PlanGraph:
    """Operators, state, clock, and epoch of one ATC."""

    def __init__(self, graph_id: str, federation: Federation,
                 config: ExecutionConfig) -> None:
        self.graph_id = graph_id
        self.federation = federation
        self.config = config
        self.clock = VirtualClock()
        self.metrics = Metrics()
        self.epoch = 0
        self.units: dict[str, InputUnit] = {}
        self.nodes: dict[str, MJoinNode] = {}
        self.ra_sources: dict[tuple, RandomAccessSource] = {}
        self.rank_merges: dict[str, RankMerge] = {}
        self._rng = make_rng(config.seed, "graph", graph_id)

    # -- epochs ------------------------------------------------------------

    def next_epoch(self) -> int:
        """Increment the logical timestamp (one per graft, Section 6.2)."""
        self.epoch += 1
        return self.epoch

    # -- construction helpers ------------------------------------------------

    def create_unit(self, unit_id: str, expr: SPJ,
                    value_key: object = None) -> InputUnit:
        """Create (or return) the input unit streaming ``expr``, its
        delays drawn from a stream named by its value key, not its id."""
        existing = self.units.get(unit_id)
        if existing is not None:
            return existing
        site = self.federation.site_of_expression(expr)
        if site is None:
            raise ExecutionError(
                f"input {expr!r} spans sites; it cannot be a single "
                "streaming source"
            )
        source = StreamingSource(
            name=unit_id,
            expr=expr,
            database=self.federation.database(site),
            clock=self.clock,
            metrics=self.metrics,
            delays=self.config.delays,
            rng=self._source_rng(value_key or unit_id),
        )
        unit = InputUnit(unit_id, expr, source, self.clock, self.metrics,
                         self.config.delays, value_key=value_key)
        self.units[unit_id] = unit
        return unit

    def ra_source_for(self, relation: str, selections: tuple,
                      scope: str) -> RandomAccessSource:
        """Shared random-access source for ``relation`` (+ selections).

        Keyed by (relation, selections, scope): in ATC-CQ mode each CQ
        gets a private source, so probe caches are not shared -- the
        no-sharing baseline pays for every probe.
        """
        sel_key = tuple(sorted(
            (s.attr, s.op, repr(s.value)) for s in selections
        ))
        key = (relation, sel_key, scope)
        existing = self.ra_sources.get(key)
        if existing is not None:
            return existing
        database = self.federation.database_for(relation)
        source = RandomAccessSource(
            name=f"ra:{relation}:{scope}",
            relation=relation,
            database=database,
            clock=self.clock,
            metrics=self.metrics,
            delays=self.config.delays,
            rng=self._source_rng(f"ra:{relation}:{scope}"),
            selections=selections,
            use_cache=self.config.probe_caching,
        )
        self.ra_sources[key] = source
        return source

    def _source_rng(self, name: object) -> random.Random:
        return make_rng(self.config.seed, "delays", self.graph_id, name)

    # -- flow control -------------------------------------------------------------

    def release_all(self) -> int:
        """Run release passes over every m-join until fixpoint.

        Releases cascade: an upstream release becomes a downstream
        arrival, which may enable further releases.  The loop is
        bounded because every pass either releases buffered tuples
        (finite) or stops.
        """
        total = 0
        while True:
            released = 0
            for node in self.nodes.values():
                released += node.release_ready()
            total += released
            if released == 0:
                return total

    def descend_to_readable(self, supplier: Supplier) -> AnySupplier | None:
        """Follow preferred suppliers down to a readable base unit."""
        current = supplier
        hops = 0
        while True:
            hops += 1
            if hops > len(self.nodes) + len(self.units) + 2:
                raise ExecutionError(
                    f"{self.graph_id}: descent did not terminate at a "
                    f"readable unit (cycle in plan graph?)"
                )
            if isinstance(current, (InputUnit, RecoveryUnit)):
                return current if current.readable() else None
            if isinstance(current, MJoinNode):
                nxt = current.preferred_supplier()
                if nxt is None:
                    return None
                current = nxt
                continue
            raise ExecutionError(
                f"{self.graph_id}: cannot descend through "
                f"{type(current).__name__}"
            )

    # -- accounting -----------------------------------------------------------------

    def split_count(self) -> int:
        """Number of split operators: suppliers feeding > 1 consumer."""
        count = 0
        for supplier in list(self.units.values()) + list(self.nodes.values()):
            if len(supplier.consumers) > 1:
                count += 1
        return count

    def state_size(self) -> int:
        """Total stored tuples (modules + buffers + probe caches)."""
        total = 0
        for unit in self.units.values():
            total += unit.module.size
        for node in self.nodes.values():
            total += node.state_size()
        for source in self.ra_sources.values():
            total += source.cache_size
        return total

    def incomplete_rank_merges(self) -> list[RankMerge]:
        return [rm for rm in self.rank_merges.values() if not rm.complete]

    def __repr__(self) -> str:
        return (f"PlanGraph({self.graph_id!r}, units={len(self.units)}, "
                f"nodes={len(self.nodes)}, rms={len(self.rank_merges)}, "
                f"epoch={self.epoch}, t={self.clock.now:.3f}s)")
