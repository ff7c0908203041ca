"""Plan-graph operator nodes: input units and adaptive m-joins.

The query plan graph (Section 4) is a DAG whose vertices *supply*
score-ordered tuple streams to downstream consumers:

* :class:`InputUnit` wraps one input ``J`` of the input assignment
  ``(I, I-map)``: a streaming source plus the shared
  :class:`~repro.operators.access.AccessModule` all consuming m-joins
  probe (the STeM of [24]).

* :class:`RecoveryUnit` wraps the free replay stream of Algorithm 2 --
  a module's linked list as it stood when the query was grafted, merged
  with the final node's pending seed -- and deliberately does *not*
  re-insert tuples into any module.

* :class:`MJoinNode` is the m-join / STeM-eddy operator: its suppliers
  push arrivals into a :class:`~repro.operators.ranked_join.RankedJoin`,
  which probes the other suppliers' modules and the random-access
  sources in an adaptively re-ordered sequence and holds the results;
  the node *releases* them in nonincreasing intrinsic-score order gated
  by the HRJN corner bound -- which is what entitles downstream
  operators to treat every edge of the plan graph as a sorted stream.
  A grafted node's *seed*, its recovery join, is the same join over
  its suppliers' graft-time prefixes, evaluated lazily.

The *split operator* of the paper is realised by the ``consumers`` fan
out list present on every supplier: a supplier with more than one
consumer is a split (the plan graph reports it as such).
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Iterable, Mapping, Sequence
from typing import Any, Protocol

from repro.common.clock import VirtualClock
from repro.common.config import DelayModel
from repro.common.errors import ExecutionError
from repro.data.rows import STuple
from repro.data.sources import EXHAUSTED, ListSource, StreamingSource
from repro.operators.access import AccessModule
from repro.operators.ranked_join import ProbeTarget, RankedJoin
from repro.plan.expressions import SPJ
from repro.obs.records import Metrics


class Consumer(Protocol):
    """Anything that receives released tuples from a supplier."""

    def on_arrival(self, supplier: "Supplier", tup: STuple) -> None: ...


def notify_bound_dirty(consumers: Sequence[Any]) -> None:
    """Tell every consumer that its supplier's bound may have changed.

    Consumers that maintain memoized bounds (m-joins) or threshold
    indexes (rank-merge entry adapters) implement
    ``on_supplier_bound_dirty``; anything else is skipped.  Propagation
    stops at consumers that are already dirty, so a burst of arrivals
    costs amortized O(1) invalidations per edge rather than one graph
    walk per tuple -- the fix for the accidentally-quadratic threshold
    maintenance this module used to do on every scheduling step.
    """
    for consumer in consumers:
        callback = getattr(consumer, "on_supplier_bound_dirty", None)
        if callback is not None:
            callback()


class Supplier(Protocol):
    """Anything that emits a sorted stream into the plan graph."""

    name: str
    expr: SPJ
    consumers: list[Consumer]
    module: AccessModule | None

    def bound(self) -> float: ...


class InputUnit:
    """One streaming input ``J``: source + shared state module.

    Reading a tuple inserts it into the module and fans it out to every
    consumer -- the fan-out is the split operator.  The module is shared
    by all m-joins that probe this input, and it is the state that later
    queries reuse.
    """

    def __init__(self, name: str, expr: SPJ,
                 source: StreamingSource | ListSource,
                 clock: VirtualClock, metrics: Metrics,
                 delays: DelayModel, value_key: object = None) -> None:
        self.name = name
        self.value_key = name if value_key is None else value_key
        self.expr = expr
        self.source = source
        self.module = AccessModule(f"module:{name}")
        self.consumers: list[Consumer] = []
        self.clock = clock
        self.metrics = metrics
        self.delays = delays
        self.last_used_epoch = 0

    def bound(self) -> float:
        return self.source.bound()

    @property
    def exhausted(self) -> bool:
        return self.source.exhausted

    @property
    def tuples_read(self) -> int:
        return self.source.tuples_read

    def read_and_route(self, epoch: int) -> STuple | None:
        """Pull one tuple from the source, store it, fan it out."""
        tup = self.source.read()
        if tup is None:
            return None
        self.module.insert(tup)
        self.clock.advance(self.delays.cpu_insert)
        self.metrics.record_insert(self.delays.cpu_insert)
        self.last_used_epoch = epoch
        notify_bound_dirty(self.consumers)
        for consumer in list(self.consumers):
            consumer.on_arrival(self, tup)
        return tup

    def readable(self) -> bool:
        return not self.source.exhausted

    def __repr__(self) -> str:
        return (f"InputUnit({self.name!r}, read={self.tuples_read}, "
                f"consumers={len(self.consumers)})")


class RecoveryUnit:
    """The replay stream ``J^e`` of Algorithm 2: the final module's
    results at graft time, ranked, merged with the final node's pending
    seed when it has one (ties go to the seed).

    Reads are free (the tuples are already in memory, already paid
    for), and nothing is re-inserted into modules -- the state already
    exists; re-inserting would duplicate it.
    """

    def __init__(self, name: str, expr: SPJ, tuples: Sequence[STuple],
                 metrics: Metrics, seed: RankedJoin | None = None) -> None:
        self.name = name
        self.expr = expr
        self.source = ListSource(name, tuples, metrics=metrics)
        self.seed = seed
        self._seed_read = 0
        self.module: AccessModule | None = None
        self.consumers: list[Consumer] = []
        self.metrics = metrics

    def _seed_bound(self) -> float:
        tup = None if self.seed is None else self.seed.result(self._seed_read)
        return EXHAUSTED if tup is None else tup.intrinsic

    def bound(self) -> float:
        return max(self._seed_bound(), self.source.bound())

    @property
    def exhausted(self) -> bool:
        return self.bound() == EXHAUSTED

    def read_and_route(self, epoch: int) -> STuple | None:
        seed_bound = self._seed_bound()
        if seed_bound != EXHAUSTED and seed_bound >= self.source.bound():
            assert self.seed is not None
            tup = self.seed.emitted[self._seed_read]
            self._seed_read += 1
            self.metrics.tuples_reused += 1
        else:
            tup = self.source.read()  # counts as reuse inside the source
            if tup is None:
                return None
        notify_bound_dirty(self.consumers)
        for consumer in list(self.consumers):
            consumer.on_arrival(self, tup)
        return tup

    def readable(self) -> bool:
        return not self.exhausted

    def __repr__(self) -> str:
        return (f"RecoveryUnit({self.name!r}, replayed="
                f"{self.source.tuples_read}, seeded={self._seed_read})")


class MJoinNode:
    """Adaptive m-way join over supplier streams and probe targets.

    Parameters
    ----------
    expr:
        The full expression this component computes.  Its aliases are
        the disjoint union of the supplier expressions' aliases and the
        probed atoms.
    suppliers:
        Upstream stream inputs (InputUnits or other MJoinNodes).  Their
        modules hold the probe-able state.
    probe_targets:
        Targets for the aliases not covered by any supplier.
    caps:
        Per-alias intrinsic contribution caps (for corner bounds).
    value_key:
        What orderings over nodes read instead of ``name``, which is a
        digest (see :mod:`repro.optimizer.factorize`); defaults to
        ``name`` in hand-built graphs.  A supplier's probe target is
        named by it, so tied targets are probed in value order.
    """

    def __init__(self, name: str, expr: SPJ,
                 suppliers: Sequence[Supplier],
                 probe_targets: Sequence[ProbeTarget],
                 caps: Mapping[str, float],
                 clock: VirtualClock, metrics: Metrics,
                 delays: DelayModel,
                 adaptive: bool = True,
                 value_key: object = None) -> None:
        self.name = name
        self.value_key = name if value_key is None else value_key
        self.expr = expr
        self.suppliers = list(suppliers)
        self.probe_targets = list(probe_targets)
        self.caps = dict(caps)
        self.clock = clock
        self.metrics = metrics
        self.delays = delays
        self.adaptive = adaptive
        self.module = AccessModule(f"module:{name}")
        self.consumers: list[Consumer] = []
        #: The pending recovery join (:meth:`seed_from_suppliers`).
        self.seed: RankedJoin | None = None

        covered: set[str] = set()
        for supplier in self.suppliers:
            if supplier.module is None:
                raise ExecutionError(
                    f"{name}: supplier {supplier.name!r} keeps no module")
            overlap = covered & set(supplier.expr.aliases)
            if overlap:
                raise ExecutionError(
                    f"{name}: suppliers overlap on aliases {sorted(overlap)}"
                )
            covered.update(supplier.expr.aliases)
        for target in self.probe_targets:
            covered.update(target.aliases)
        if covered != set(expr.aliases):
            raise ExecutionError(
                f"{name}: inputs cover {sorted(covered)} but expression "
                f"needs {sorted(expr.aliases)}"
            )
        self._probe_cap = sum(
            self._top_of(t.aliases) for t in self.probe_targets)
        cost = delays.cpu_probe

        def charge_probe() -> None:
            # Not a bound method: the joins hold it, and must not hold
            # the node, or an unlinked node would wait for the cyclic
            # collector.
            clock.advance(cost)
            metrics.record_join_probe(cost)

        self._charge_probe = charge_probe
        # When a tuple arrives from one supplier, the others are probed
        # through their shared modules.
        self.join = RankedJoin(
            expr.joins,
            [ProbeTarget(f"{name}<-{s.value_key}", frozenset(s.expr.aliases),
                         "module", module=s.module, stream=s)
             for s in self.suppliers],
            self.probe_targets,
            [self._top_of(s.expr.aliases) for s in self.suppliers],
            self._probe_cap,
            charge=self._charge_probe, adaptive=adaptive, name=name)

    def _top_of(self, aliases: Iterable[str]) -> float:
        return sum(self.caps[a] for a in aliases)

    # -- bounds -----------------------------------------------------------------

    def on_supplier_bound_dirty(self) -> None:
        """A supplier's bound changed: drop the corner memo and pass the
        invalidation downstream.  Stops when already dirty -- consumers
        were notified the first time and have not recomputed since."""
        if self.join.invalidate():
            notify_bound_dirty(self.consumers)

    def corner_bound(self) -> float:
        """HRJN corner bound on the intrinsic score of any join result
        not yet produced: some stream contributes its next-unseen tuple
        (bounded by the stream bound) and everything else its cap.
        """
        return self.join.corner()

    def bound(self) -> float:
        """Bound on the intrinsic score of the next *released* tuple."""
        return self.join.bound()

    def preferred_supplier(self) -> Supplier | None:
        """The supplier whose next read drops this node's corner bound
        the most (:meth:`RankedJoin.preferred`), ``None`` when every
        supplier is exhausted."""
        index = self.join.preferred()
        return None if index is None else self.suppliers[index]

    @property
    def exhausted(self) -> bool:
        return self.bound() == EXHAUSTED

    # -- data flow -----------------------------------------------------------------

    def on_arrival(self, supplier: Supplier, tup: STuple) -> None:
        """Probe the other inputs with the arriving tuple; hold results."""
        index = next((i for i, s in enumerate(self.suppliers)
                      if s is supplier), None)
        if index is None:
            raise ExecutionError(
                f"{self.name}: arrival from unknown supplier {supplier.name!r}"
            )
        if self.join.join(index, tup):
            # The held top may have risen, which raises bound().
            notify_bound_dirty(self.consumers)

    def seed_from_suppliers(self) -> None:
        """Start the recovery join of Algorithm 2 at graft time: every
        join result derivable from what the suppliers' modules hold now,
        as a :class:`RankedJoin` over each supplier's graft-time prefix
        plus this node's probe targets.  Nothing is re-read from a site,
        which is what makes state reuse nearly free.

        One prefix -- the smallest, ties by value key -- is the ranked
        input, read lazily; each other prefix is indexed whole at graft,
        as a probe target.  (Pulling every prefix, as the site does,
        would probe a random-access atom between two suppliers from
        both sides.)  The seed stays pending in :attr:`seed` and is read
        as a ranked input, only as deep as the reader's threshold
        demands.  A tuple a supplier stores after the graft reaches this
        node as an arrival and never enters the seed.  Nodes with an
        empty supplier seed nothing -- every result needs one tuple from
        every stream.
        """
        prefixes = []
        for supplier, target in zip(self.suppliers, self.join.inputs):
            module = supplier.module
            assert module is not None
            if module.size == 0:
                return
            ranked = itertools.islice(module.ranked_replay(), module.size)
            prefixes.append((module.size, supplier.value_key, target, ranked))
        prefixes.sort(key=lambda p: p[:2])
        (_size, _key, driving, ranked), *others = prefixes
        probes, cap = [], self._probe_cap
        for _size, _key, target, rest in others:
            whole = AccessModule(target.name)
            for tup in rest:
                whole.insert(tup)
            probes.append(ProbeTarget(target.name, target.aliases, "module",
                                      module=whole))
            cap += whole.ranked_replay()[0].intrinsic
        self.seed = RankedJoin(
            self.expr.joins,
            [ProbeTarget.over_prefix(driving.name, driving.aliases, ranked)],
            probes + self.probe_targets, probe_cap=cap,
            charge=self._charge_probe, adaptive=self.adaptive,
            name=f"{self.name}:seed")

    def materialize_seed(self) -> int:
        """Run the pending seed to exhaustion into the module, as the
        suppliers' state must be complete before anything probes it
        (a new parent's construction and seed).  Readers of the seed
        keep reading its memo.  Returns the results inserted."""
        seed, self.seed = self.seed, None
        if seed is None:
            return 0
        seed.result(sys.maxsize)
        for tup in seed.emitted:
            self.module.insert(tup)
            self.clock.advance(self.delays.cpu_insert)
            self.metrics.record_insert(self.delays.cpu_insert)
            self.metrics.tuples_reused += 1
        # The module grew: consumers that break ties by size recompute.
        notify_bound_dirty(self.consumers)
        return len(seed.emitted)

    def release_ready(self) -> int:
        """Release held results whose score no future result can beat;
        returns the number released."""
        released = 0
        while (tup := self.join.pop()) is not None:
            self.module.insert(tup)
            self.clock.advance(self.delays.cpu_insert)
            self.metrics.record_insert(self.delays.cpu_insert)
            released += 1
            notify_bound_dirty(self.consumers)
            for consumer in list(self.consumers):
                consumer.on_arrival(self, tup)
        return released

    @property
    def buffered(self) -> int:
        return self.join.waiting

    def state_size(self) -> int:
        held = self.seed.held if self.seed is not None else 0
        return self.module.size + self.join.waiting + held

    def __repr__(self) -> str:
        return (f"MJoinNode({self.name!r}, suppliers="
                f"{[s.name for s in self.suppliers]}, "
                f"buffered={self.join.waiting})")
