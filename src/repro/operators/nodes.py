"""Plan-graph operator nodes: input units and adaptive m-joins.

The query plan graph (Section 4) is a DAG whose vertices *supply*
score-ordered tuple streams to downstream consumers:

* :class:`InputUnit` wraps one input ``J`` of the input assignment
  ``(I, I-map)``: a streaming source plus the shared
  :class:`~repro.operators.access.AccessModule` all consuming m-joins
  probe (the STeM of [24]).

* :class:`RecoveryUnit` wraps the free replay stream of Algorithm 2 --
  a module's linked list as it stood when the query was grafted, merged
  with the final node's pending :class:`SeedStream` -- and deliberately
  does *not* re-insert tuples into any module.

* :class:`SeedStream` is a grafted m-join's recovery join, evaluated
  lazily in nonincreasing intrinsic order under an exact bound.

* :class:`MJoinNode` is the m-join / STeM-eddy operator: it consumes
  one or more supplier streams, probes the other suppliers' modules and
  the random-access sources according to an adaptively re-ordered probe
  sequence, buffers join results, and *releases* them in nonincreasing
  intrinsic-score order gated by an HRJN-style corner bound -- which is
  what entitles downstream operators to treat every edge of the plan
  graph as a sorted stream.

The *split operator* of the paper is realised by the ``consumers`` fan
out list present on every supplier: a supplier with more than one
consumer is a split (the plan graph reports it as such).
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from collections.abc import Mapping, Sequence
from typing import Any, Protocol

from repro.common.clock import VirtualClock
from repro.common.config import DelayModel
from repro.common.errors import ExecutionError
from repro.data.rows import Shape, STuple
from repro.data.sources import EXHAUSTED, ListSource, RandomAccessSource, StreamingSource
from repro.operators.access import AccessModule
from repro.plan.expressions import SPJ, JoinPred
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
        self.pinned = False
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
    :class:`SeedStream` when it has one (ties go to the seed).

    Reads are free (the tuples are already in memory, already paid
    for), and nothing is re-inserted into modules -- the state already
    exists; re-inserting would duplicate it.
    """

    def __init__(self, name: str, expr: SPJ, tuples: Sequence[STuple],
                 metrics: Metrics, seed: SeedStream | None = None) -> None:
        self.name = name
        self.expr = expr
        self.source = ListSource(name, tuples, charge_free=True,
                                 metrics=metrics)
        self.seed = seed
        self._seed_read = 0
        self.module: AccessModule | None = None
        self.consumers: list[Consumer] = []
        self.metrics = metrics

    def _seed_bound(self) -> float:
        if self.seed is None:
            return EXHAUSTED
        return self.seed.bound_at(self._seed_read)

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


class SeedStream:
    """One grafted m-join's recovery join as a ranked stream.

    The join of what the suppliers held at graft time, computed as
    Algorithm 2 does: replay one supplier's module -- the *driving*
    one, ranked, and only the prefix it held at graft -- and probe the
    node's other inputs with each replayed tuple, exactly as a live
    arrival does.  Results wait in a heap, and the head is emitted once
    no unproduced result can beat it: once it reaches the corner bound,
    the next driving tuple's intrinsic score plus the caps of
    everything it is probed against.  So :meth:`bound_at` is exact, and
    a reader pulls only as deep as its rank-merge's threshold demands.

    Emitted results are memoized in :attr:`emitted`, so every reader --
    each CQ grafted onto the node while the seed is pending -- reads
    the stream from the top.  :meth:`drain` produces the rest; the node
    runs it into its module before anything probes the module.
    """

    def __init__(self, node: MJoinNode, driving: Supplier) -> None:
        assert driving.module is not None
        self._node = node
        self._drive: Sequence[STuple] | None = driving.module.ranked_replay()
        self._end = driving.module.size
        self._pos = 0
        idx = node.suppliers.index(driving)
        self._targets = [t for i, t in node._supplier_targets.items()
                         if i != idx] + node.probe_targets
        #: Caps of every alias a driving tuple is joined with.
        self._rest = (node._tops_total - node._supplier_tops[idx]
                      + node._probe_cap)
        self._heap: list[tuple[float, int, STuple]] = []
        self._counter = itertools.count()
        self.emitted: list[STuple] = []

    def _corner(self) -> float:
        if self._pos >= self._end:
            return EXHAUSTED
        assert self._drive is not None
        return self._drive[self._pos].intrinsic + self._rest

    def _join_next(self) -> list[STuple]:
        """Join the next driving tuple against the other inputs."""
        assert self._drive is not None
        tup = self._drive[self._pos]
        self._pos += 1
        if self._pos >= self._end:
            self._drive = None  # nothing left to drive: let the log go
        node = self._node
        partials = [tup]
        for target in node._probe_order(self._targets, tup.aliases):
            if not partials:
                break
            partials = node._extend(partials, target)
        return partials

    def _emit_through(self, index: int) -> bool:
        """Emit until :attr:`emitted` holds ``index``; False when the
        stream ends first."""
        heap, emitted = self._heap, self.emitted
        while len(emitted) <= index:
            corner = self._corner()
            if heap and -heap[0][0] >= corner:
                emitted.append(heapq.heappop(heap)[2])
            elif corner == EXHAUSTED:
                return False
            else:
                for result in self._join_next():
                    heapq.heappush(heap, (-result.intrinsic,
                                          next(self._counter), result))
        return True

    def bound_at(self, index: int) -> float:
        """Intrinsic score of the ``index``-th result, ``-inf`` past
        the end."""
        if not self._emit_through(index):
            return EXHAUSTED
        return self.emitted[index].intrinsic

    def drain(self) -> list[STuple]:
        """Every result, in stream order (produces the rest)."""
        self._emit_through(sys.maxsize)
        return self.emitted

    @property
    def held(self) -> int:
        """Results produced and held (emitted or waiting)."""
        return len(self.emitted) + len(self._heap)


class ProbeTarget:
    """One step of an m-join probe sequence: resolves a set of aliases.

    ``lookup`` answers "which stored/probe-able tuples join with this
    partial binding" -- backed by a shared module (stream inputs) or a
    remote random-access source (probe atoms).
    """

    def __init__(self, name: str, aliases: frozenset[str],
                 kind: str,
                 module: AccessModule | None = None,
                 ra_source: RandomAccessSource | None = None,
                 ra_alias: str | None = None) -> None:
        if kind not in ("module", "random"):
            raise ExecutionError(f"unknown probe target kind {kind!r}")
        self.name = name
        self.aliases = aliases
        self.kind = kind
        self.module = module
        self.ra_source = ra_source
        self.ra_alias = ra_alias
        self.probes = 0
        self.matches = 0

    def lookup(self, alias: str, attr: str, value: Any) -> list[STuple]:
        if self.kind == "module":
            assert self.module is not None
            self.module.ensure_index(alias, attr)
            return self.module.probe(alias, attr, value)
        assert self.ra_source is not None and self.ra_alias is not None
        return self.ra_source.probe_stuples(self.ra_alias, attr, value)

    @property
    def observed_fanout(self) -> float:
        """Matches per probe so far; optimistic 1.0 before evidence."""
        if self.probes == 0:
            return 1.0
        return self.matches / self.probes

    def __repr__(self) -> str:
        return f"ProbeTarget({self.name!r}, kind={self.kind})"


class MJoinNode:
    """Adaptive m-way join over supplier streams and probe targets.

    Parameters
    ----------
    expr:
        The full expression this component computes.  Its aliases are
        the disjoint union of the supplier expressions' aliases and the
        probed atoms.
    suppliers:
        Upstream stream inputs (InputUnits, RecoveryUnits, or other
        MJoinNodes).  Their modules hold the probe-able state.
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
        self.seed: SeedStream | None = None

        covered: set[str] = set()
        for supplier in self.suppliers:
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
        # Supplier-module probe targets for stream inputs: when a tuple
        # arrives from one supplier, the others are probed via their
        # shared modules.
        self._supplier_targets: dict[int, ProbeTarget] = {}
        for idx, supplier in enumerate(self.suppliers):
            if supplier.module is None:
                continue
            self._supplier_targets[idx] = ProbeTarget(
                f"{name}<-{supplier.value_key}",
                frozenset(supplier.expr.aliases),
                "module",
                module=supplier.module,
            )
        self._crossing_preds = self._compute_crossing_preds()
        self._ensure_indexes()
        #: (target, partial shape) -> :meth:`_step_plan`'s resolution.
        self._step_plans: dict[tuple[ProbeTarget, Shape], tuple] = {}
        self._buffer: list[tuple[float, int, STuple]] = []
        self._counter = itertools.count()
        # Corner bounds are evaluated on every scheduling step; cache
        # the per-supplier cap totals so each evaluation is O(streams).
        self._supplier_tops = [
            sum(self.caps[a] for a in s.expr.aliases) for s in self.suppliers
        ]
        self._tops_total = sum(self._supplier_tops)
        self._probe_cap = sum(
            self._top_of(t.aliases) for t in self.probe_targets
        )
        #: Memoized corner bound; ``None`` means dirty.  Invalidated by
        #: supplier bound changes (``on_supplier_bound_dirty``); the
        #: buffer does not feed the corner, so buffer churn leaves it
        #: intact (``bound()`` folds the buffer top in per call).
        self._corner_cache: float | None = None

    # -- static structure -------------------------------------------------------

    def _compute_crossing_preds(self) -> dict[str, list[JoinPred]]:
        """For each probe-target name, the predicates crossing into it."""
        out: dict[str, list[JoinPred]] = {}
        for target in self._all_targets():
            preds = [
                p for p in self.expr.joins
                if (p.left_alias in target.aliases)
                != (p.right_alias in target.aliases)
            ]
            if not preds:
                raise ExecutionError(
                    f"{self.name}: target {target.name!r} has no join "
                    "predicate connecting it to the rest of the expression"
                )
            out[target.name] = preds
        return out

    def _all_targets(self) -> list[ProbeTarget]:
        return list(self._supplier_targets.values()) + self.probe_targets

    def _ensure_indexes(self) -> None:
        for target in self._supplier_targets.values():
            assert target.module is not None
            for pred in self._preds_for(target):
                for alias, attr in ((pred.left_alias, pred.left_attr),
                                    (pred.right_alias, pred.right_attr)):
                    if alias in target.aliases:
                        target.module.ensure_index(alias, attr)

    def _preds_for(self, target: ProbeTarget) -> list[JoinPred]:
        return self._crossing_preds[target.name]

    # -- bounds -----------------------------------------------------------------

    def _top_of(self, aliases: frozenset[str]) -> float:
        return sum(self.caps[a] for a in aliases)

    def on_supplier_bound_dirty(self) -> None:
        """A supplier's bound changed: drop the corner memo and pass the
        invalidation downstream.  Stops when already dirty -- consumers
        were notified the first time and have not recomputed since."""
        if self._corner_cache is None:
            return
        self._corner_cache = None
        notify_bound_dirty(self.consumers)

    def corner_bound(self) -> float:
        """HRJN corner bound on the intrinsic score of any join result
        not yet in the buffer: some stream contributes its next-unseen
        tuple (bounded by the stream bound) and everything else its cap.
        """
        cached = self._corner_cache
        if cached is not None:
            return cached
        best = -math.inf
        for idx, supplier in enumerate(self.suppliers):
            s_i = supplier.bound()
            if s_i == EXHAUSTED:
                continue
            value = s_i + self._tops_total - self._supplier_tops[idx]
            if value > best:
                best = value
        corner = -math.inf if best == -math.inf else best + self._probe_cap
        self._corner_cache = corner
        return corner

    def bound(self) -> float:
        """Bound on the intrinsic score of the next *released* tuple."""
        corner = self.corner_bound()
        if self._buffer:
            return max(corner, -self._buffer[0][0])
        return corner

    def preferred_supplier(self) -> Supplier | None:
        """The supplier whose next read drops this node's corner bound
        the most: the one attaining the corner maximum, and of several
        that tie, the one holding the fewest tuples -- so tied suppliers
        take turns, and a stream whose many tuples share its top score
        is not drained while the others' are still unread.  ``None``
        when every supplier is exhausted."""
        best: Supplier | None = None
        best_value = (-math.inf, 0)
        for idx, supplier in enumerate(self.suppliers):
            s_i = supplier.bound()
            if s_i == EXHAUSTED:
                continue
            module = supplier.module
            stored = module.size if module is not None else 0
            value = (s_i + self._tops_total - self._supplier_tops[idx],
                     -stored)
            if value > best_value:
                best_value = value
                best = supplier
        return best

    @property
    def exhausted(self) -> bool:
        return self.bound() == -math.inf and not self._buffer

    # -- data flow -----------------------------------------------------------------

    def on_arrival(self, supplier: Supplier, tup: STuple) -> None:
        """Probe the other inputs with the arriving tuple; buffer results."""
        try:
            driving_idx = next(
                i for i, s in enumerate(self.suppliers) if s is supplier
            )
        except StopIteration:
            raise ExecutionError(
                f"{self.name}: arrival from unknown supplier {supplier.name!r}"
            ) from None
        targets = [
            t for i, t in self._supplier_targets.items() if i != driving_idx
        ] + self.probe_targets
        order = self._probe_order(targets, tup.aliases)
        partials = [tup]
        for target in order:
            if not partials:
                break
            partials = self._extend(partials, target)
        if partials:
            for result in partials:
                heapq.heappush(
                    self._buffer,
                    (-result.intrinsic, next(self._counter), result),
                )
            # The buffer top may have risen, which raises bound().
            notify_bound_dirty(self.consumers)

    def _probe_order(self, targets: list[ProbeTarget],
                     start_aliases: frozenset[str]) -> list[ProbeTarget]:
        """Connectivity-constrained greedy order by observed fanout.

        Re-derived per arrival from monitored selectivities -- this is
        the eddy-style runtime adaptivity: each driving input can end up
        with a different probe sequence.
        """
        remaining = list(targets)
        bound_aliases = set(start_aliases)
        order: list[ProbeTarget] = []
        while remaining:
            connected = [
                t for t in remaining
                if any(
                    (p.left_alias in bound_aliases
                     and p.right_alias in t.aliases)
                    or (p.right_alias in bound_aliases
                        and p.left_alias in t.aliases)
                    for p in self._preds_for(t)
                )
            ]
            if not connected:
                raise ExecutionError(
                    f"{self.name}: probe order stuck; remaining targets "
                    f"{[t.name for t in remaining]} are not connected to "
                    f"bound aliases {sorted(bound_aliases)}"
                )
            if self.adaptive:
                connected.sort(key=lambda t: (t.observed_fanout, t.name))
            else:
                connected.sort(key=lambda t: t.name)  # static order
            chosen = connected[0]
            order.append(chosen)
            bound_aliases.update(chosen.aliases)
            remaining.remove(chosen)
        return order

    def _step_plan(self, target: ProbeTarget, shape: Shape) -> tuple:
        """How a partial of ``shape`` probes ``target``, resolved once
        per (target, shape): the first applicable predicate as
        ``(target alias, target attr, partial position, partial attr)``
        and the rest as ``(candidate alias, candidate attr, partial
        position, partial attr)`` to verify on each candidate."""
        steps = []
        for p in self._preds_for(target):
            if p.left_alias in target.aliases \
                    and p.right_alias in shape.alias_set:
                steps.append((p.left_alias, p.left_attr,
                              shape.index[p.right_alias], p.right_attr))
            elif p.right_alias in target.aliases \
                    and p.left_alias in shape.alias_set:
                steps.append((p.right_alias, p.right_attr,
                              shape.index[p.left_alias], p.left_attr))
        if not steps:
            raise ExecutionError(
                f"{self.name}: no applicable predicate probing "
                f"{target.name!r}"
            )
        return steps[0], steps[1:]

    def _extend(self, partials: list[STuple],
                target: ProbeTarget) -> list[STuple]:
        """Join every partial binding against one probe target."""
        grown: list[STuple] = []
        plans = self._step_plans
        shape = None
        for partial in partials:
            if partial.shape is not shape:
                shape = partial.shape
                plan = plans.get((target, shape))
                if plan is None:
                    plan = plans[(target, shape)] = \
                        self._step_plan(target, shape)
                (t_alias, t_attr, p_pos, p_attr), rest = plan
            value = partial.rows[p_pos].values[p_attr]
            self.clock.advance(self.delays.cpu_probe)
            self.metrics.record_join_probe(self.delays.cpu_probe)
            candidates = target.lookup(t_alias, t_attr, value)
            target.probes += 1
            for candidate in candidates:
                if rest and any(
                        candidate.value(c_alias, c_attr)
                        != partial.rows[o_pos].values[o_attr]
                        for c_alias, c_attr, o_pos, o_attr in rest):
                    continue
                target.matches += 1
                grown.append(partial.merge(candidate))
        return grown

    def seed_from_suppliers(self) -> int:
        """Start the recovery join of Algorithm 2 at graft time: every
        join result derivable from the suppliers' *current* module
        contents, as a :class:`SeedStream` that drives the replay of one
        supplier's module (the smallest, ties by value key) and treats
        the other inputs as random-access ones.  Nothing is re-read
        from a site, which is what makes state reuse nearly free.

        With one stream supplier the seed stays pending in :attr:`seed`
        and is read as a ranked input, only as deep as the reader's
        threshold demands.  With several, the other suppliers keep
        growing, so a later pull would join tuples that arrived after
        the graft: the seed runs into the module now.  Nodes with an
        empty supplier seed nothing -- every result needs one tuple
        from every stream.

        Returns the number of results materialized into the module.
        """
        moduled = [s for s in self.suppliers if s.module is not None]
        if len(moduled) != len(self.suppliers):
            return 0  # recovery-style nodes never seed
        if any(s.module.size == 0 for s in moduled):
            return 0
        driving = min(moduled, key=lambda s: (s.module.size, s.value_key))
        self.seed = SeedStream(self, driving)
        if len(moduled) == 1:
            return 0
        return self.materialize_seed()

    def materialize_seed(self) -> int:
        """Run the pending seed to exhaustion into the module, as the
        suppliers' state must be complete before anything probes it
        (a new parent's construction and seed).  Readers of the seed
        keep reading its memo.  Returns the results inserted."""
        seed, self.seed = self.seed, None
        if seed is None:
            return 0
        results = seed.drain()
        for tup in results:
            self.module.insert(tup)
            self.clock.advance(self.delays.cpu_insert)
            self.metrics.record_insert(self.delays.cpu_insert)
            self.metrics.tuples_reused += 1
        return len(results)

    def release_ready(self) -> int:
        """Release buffered results whose score no future result can
        beat; returns the number released."""
        released = 0
        epsilon = 1e-9
        while self._buffer:
            corner = self.corner_bound()
            top_neg, _seq, tup = self._buffer[0]
            if -top_neg + epsilon < corner:
                break
            heapq.heappop(self._buffer)
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
        return len(self._buffer)

    def state_size(self) -> int:
        held = self.seed.held if self.seed is not None else 0
        return self.module.size + len(self._buffer) + held

    def __repr__(self) -> str:
        return (f"MJoinNode({self.name!r}, suppliers="
                f"{[s.name for s in self.suppliers]}, "
                f"buffered={len(self._buffer)})")
