"""The ranked join: one HRJN core for every join that releases in rank.

The paper's m-join releases its results "HRJN-style" under a corner
bound (Section 4), and Algorithm 2 feeds a grafted operator's existing
state back as one more ranked input.  :class:`RankedJoin` is that join.
It joins k ranked *inputs*, each a stream plus a :class:`ProbeTarget`
over a module of what the stream has delivered (a live supplier's
shared module, or a :class:`Prefix`'s private one), and *probe targets*
for the aliases no input covers.  A delivered tuple is joined against
the other inputs' modules and the probe targets in a connected order
re-derived from observed fanouts; results wait in one heap, and the
head leaves once it reaches the *corner bound*: the best over the
inputs of that input's next score plus everything else's top.

Its three callers differ only in the data they pass:

* :meth:`~repro.data.database.Database.ranked_producer` pulls a site's
  relations' sorted scans.  Held results are ordered by sorted
  provenance, so one tied with the corner waits, and are laid out in
  the site's build order, so scores are bit-identical to
  ``execute_spj``'s.  Nothing is charged: the work is the site's;
* :class:`~repro.operators.nodes.MJoinNode`'s suppliers push arrivals,
  and its releases pop the heap.  Held results leave in arrival order,
  so one tied with the corner may leave.  The node pays virtual time
  and ``join_probes``;
* a grafted m-join's seed (recovery) pulls one supplier's graft-time
  prefix, probing the others' prefixes and the node's probe targets,
  only as deep as its readers demand; the node pays.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Iterable, Sequence
from typing import Any, Protocol

from repro.common.errors import ExecutionError
from repro.data.rows import Shape, STuple
from repro.data.sources import EXHAUSTED, RandomAccessSource
from repro.operators.access import AccessModule
from repro.plan.expressions import JoinPred

#: How close a result may be to the corner and count as tied with it:
#: above the float rounding between sums of the same scores taken in a
#: different order, below any meaningful score gap.
TIE = 1e-9


class Ranked(Protocol):
    """A stream whose next tuple's score is :meth:`bound`."""

    def bound(self) -> float: ...


class Prefix:
    """A ranked sequence read to a fixed length, one tuple per
    :meth:`read`, into a private module that indexes what was read."""

    def __init__(self, name: str, tuples: Iterable[STuple]) -> None:
        self.module = AccessModule(name)
        self._rest = iter(tuples)
        self._next = next(self._rest, None)

    def bound(self) -> float:
        return EXHAUSTED if self._next is None else self._next.intrinsic

    def read(self) -> STuple:
        tup = self._next
        assert tup is not None, "read past the end of a prefix"
        self._next = next(self._rest, None)
        self.module.insert(tup)
        return tup


class ProbeTarget:
    """One step of a probe sequence: resolves a set of aliases.

    ``lookup`` answers "which stored/probe-able tuples join with this
    partial binding" -- backed by a module (an input's delivered tuples,
    or state read whole) or a remote random-access source (probe
    atoms).  An input's target carries its ``stream``.
    """

    def __init__(self, name: str, aliases: frozenset[str],
                 kind: str,
                 module: AccessModule | None = None,
                 ra_source: RandomAccessSource | None = None,
                 ra_alias: str | None = None,
                 stream: Ranked | None = None) -> None:
        if kind not in ("module", "random"):
            raise ExecutionError(f"unknown probe target kind {kind!r}")
        self.name = name
        self.aliases = aliases
        self.kind = kind
        self.module = module
        self.ra_source = ra_source
        self.ra_alias = ra_alias
        self.stream = stream
        self.probes = 0
        self.matches = 0

    @classmethod
    def over_prefix(cls, name: str, aliases: frozenset[str],
                    tuples: Iterable[STuple]) -> ProbeTarget:
        """An input reading ``tuples`` (ranked) as a :class:`Prefix`."""
        prefix = Prefix(name, tuples)
        return cls(name, aliases, "module", module=prefix.module,
                   stream=prefix)

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


class RankedJoin:
    """HRJN over ranked inputs and probe targets (see the module doc).

    Parameters
    ----------
    joins:
        The join predicates of the expression the join computes.
    inputs:
        One target per ranked input, its ``stream`` set.
    probes:
        Targets for the aliases no input covers.
    tops:
        Per input, a cap on any tuple's score; by default each input's
        bound at construction, exact for a prefix.
    probe_cap:
        The probe targets' aliases' caps, summed.
    key:
        Orders held results of equal score: ``None`` for arrival
        order, under which a result tied with the corner may leave.
    layout:
        The alias order results are laid out and scored in.
    charge:
        Called once per probe, by whoever pays for the join.
    adaptive:
        Order each tuple's probes by observed fanout; otherwise by
        target name, once per input.
    """

    def __init__(self, joins: Sequence[JoinPred],
                 inputs: Sequence[ProbeTarget],
                 probes: Sequence[ProbeTarget] = (),
                 tops: Sequence[float] | None = None,
                 probe_cap: float = 0.0, *,
                 key: Callable[[STuple], Any] | None = None,
                 layout: Shape | None = None,
                 charge: Callable[[], None] | None = None,
                 adaptive: bool = True, name: str = "join") -> None:
        self.name = name
        self.inputs = list(inputs)
        self.probes = list(probes)
        self._streams: list[Ranked] = []
        self._modules: list[AccessModule] = []
        for target in self.inputs:
            assert target.stream is not None \
                and target.module is not None, f"{target.name} is no input"
            self._streams.append(target.stream)
            self._modules.append(target.module)
        self.tops = [stream.bound() for stream in self._streams] \
            if tops is None else list(tops)
        self._tops_total = sum(self.tops)
        self._probe_cap = probe_cap
        self._key = key
        self._layout = layout
        self._charge = charge
        self.adaptive = adaptive
        #: Target name -> the predicates crossing into it.
        self._crossing: dict[str, list[JoinPred]] = {}
        targets = self.inputs + self.probes
        for target in targets:
            preds = [p for p in joins
                     if (p.left_alias in target.aliases)
                     != (p.right_alias in target.aliases)]
            if not preds and len(targets) > 1:
                raise ExecutionError(
                    f"{name}: target {target.name!r} has no join "
                    "predicate connecting it to the rest of the expression"
                )
            self._crossing[target.name] = preds
        #: (target, partial shape) -> :meth:`_step_plan`'s resolution.
        self._step_plans: dict[tuple[ProbeTarget, Shape], tuple] = {}
        #: Input index -> its probe order, when that order is static.
        self._static_orders: dict[int, list[ProbeTarget]] = {}
        #: Result shape -> positions of ``layout``'s aliases in it.
        self._layouts: dict[Shape, tuple[int, ...]] = {}
        self._heap: list[tuple[float, Any, STuple]] = []
        self._arrivals = itertools.count()
        #: Memoized (:meth:`preferred`, :meth:`corner`); ``None`` means
        #: dirty.  Callers drop it whenever an input's bound or size
        #: moves.
        self._attained: tuple[int | None, float] | None = None
        #: Results popped through :meth:`result`, in rank order.
        self.emitted: list[STuple] = []

    # -- bounds -----------------------------------------------------------

    def invalidate(self) -> bool:
        """An input's bound moved: drop the memoized corner.  False when
        it was dropped already."""
        if self._attained is None:
            return False
        self._attained = None
        return True

    def corner(self) -> float:
        """Bound on the score of any result not yet held: some input
        contributes its next tuple and everything else its top."""
        return self._attaining()[1]

    def bound(self) -> float:
        """Bound on the score of the next result to leave."""
        if self._heap:
            return max(self.corner(), -self._heap[0][0])
        return self.corner()

    def preferred(self) -> int | None:
        """The input whose next tuple attains the corner, and of several
        tied, the one holding the fewest tuples -- so tied inputs take
        turns; ``None`` when every input is exhausted."""
        return self._attaining()[0]

    def _attaining(self) -> tuple[int | None, float]:
        attained = self._attained
        if attained is not None:
            return attained
        best: int | None = None
        best_value = (EXHAUSTED, 0)
        total, modules = self._tops_total, self._modules
        for index, (stream, top) in enumerate(zip(self._streams, self.tops)):
            bound = stream.bound()
            if bound == EXHAUSTED:
                continue
            value = (bound + total - top, -modules[index].size)
            if value > best_value:
                best_value = value
                best = index
        corner = best_value[0]
        if corner != EXHAUSTED:
            corner += self._probe_cap
        self._attained = best, corner
        return self._attained

    @property
    def waiting(self) -> int:
        """Results produced and not yet released."""
        return len(self._heap)

    @property
    def held(self) -> int:
        """Results produced and held (emitted or waiting)."""
        return len(self.emitted) + len(self._heap)

    # -- data flow -----------------------------------------------------------

    def pop(self) -> STuple | None:
        """The head result if no unproduced result can beat it."""
        heap = self._heap
        if not heap:
            return None
        score, corner = -heap[0][0], self.corner()
        if score > corner + TIE \
                or (self._key is None and score + TIE >= corner):
            return heapq.heappop(heap)[2]
        return None

    def result(self, index: int) -> STuple | None:
        """The ``index``-th result in rank order, pulling the prefixes
        only as deep as that takes; ``None`` past the last.  Results are
        memoized in :attr:`emitted`, so any number of readers read the
        join from the top."""
        emitted = self.emitted
        while len(emitted) <= index:
            tup = self.pop()
            if tup is not None:
                emitted.append(tup)
                continue
            preferred = self.preferred()
            if preferred is None:
                return None
            self.pull(preferred)
        return emitted[index]

    def pull(self, index: int) -> None:
        """Read one tuple from prefix ``index`` and join it."""
        prefix = self._streams[index]
        assert isinstance(prefix, Prefix), "only a prefix is pulled"
        tup = prefix.read()
        self._attained = None
        self.join(index, tup)

    def join(self, index: int, tup: STuple) -> int:
        """Join a tuple input ``index`` delivered against what the other
        inputs hold and the probe targets, and hold the results;
        returns how many there were."""
        order = self._static_orders.get(index)
        if order is None:
            order = self._probe_order(
                [t for i, t in enumerate(self.inputs) if i != index]
                + self.probes, tup.aliases)
            if not self.adaptive:
                self._static_orders[index] = order
        partials = [tup]
        for target in order:
            if not partials:
                break
            partials = self._extend(partials, target)
        layout, heap = self._layout, self._heap
        for result in partials:
            if layout is not None and result.shape is not layout:
                result = self._laid_out(result, layout)
            order = next(self._arrivals) if self._key is None \
                else self._key(result)
            heapq.heappush(heap, (-result.intrinsic, order, result))
        return len(partials)

    def _laid_out(self, result: STuple, layout: Shape) -> STuple:
        """``result`` re-laid in ``layout``'s alias order and scored in
        it."""
        positions = self._layouts.get(result.shape)
        if positions is None:
            positions = self._layouts[result.shape] = tuple(
                result.shape.index[alias] for alias in layout.aliases)
        rows, contribs = result.rows, result.contribs
        return STuple.of(layout, tuple(rows[i] for i in positions),
                         tuple(contribs[i] for i in positions))

    def _probe_order(self, targets: list[ProbeTarget],
                     start_aliases: frozenset[str]) -> list[ProbeTarget]:
        """Connectivity-constrained greedy order by observed fanout.

        Re-derived per tuple from monitored selectivities -- this is
        the eddy-style runtime adaptivity: each input can end up with a
        different probe sequence.
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
                    for p in self._crossing[t.name]
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
        for p in self._crossing[target.name]:
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
        charge = self._charge
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
            if charge is not None:
                charge()
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

    def __repr__(self) -> str:
        return (f"RankedJoin({self.name!r}, inputs="
                f"{[t.name for t in self.inputs]}, held={self.held})")
