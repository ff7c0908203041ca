"""Factorization of the query plan graph (Section 5.2).

Given the input assignment ``(I, I-map)`` chosen by ``BestPlan``, this
stage decides the *component structure* of the middleware plan: which
select-project-join fragments are computed by which m-join, and where
split operators feed one fragment's output into several consumers.

The paper's greedy frontier algorithm is implemented as region merging:
every conjunctive query starts with one region per assigned input plus
its pending probe atoms, and we repeatedly apply the join/absorb
operation *common to the maximal number of queries* (ties broken toward
the most selective), either growing an existing component in place --
when its full consumer set participates, keeping components as large
and as few as possible so the m-join's runtime adaptivity orders the
joins -- or creating a new component below a split when consumer sets
diverge.  The loop ends when every query is computed by a single
component (or directly by a source), which becomes the stream its
rank-merge consumes.

The loop is incremental (:class:`Factorization`).  Applying an op
rewrites the regions of the queries in its support and of no one else,
so the table of applicable ops is maintained, not rebuilt: each query
keeps the list of ops it supports, and after an op only the queries in
its support leave the table and are enumerated again.  An op's rank
addends -- the cost model's cardinality estimate of the expression it
builds and its tie-break -- are computed once, when the op enters the
table.  The tie-break is total and reads values only (kind, the value
keys of the nodes merged, and the combined expression's
:attr:`~repro.plan.expressions.SPJ.order_key`), so which of two tied
ops wins depends neither on the order of the batch nor on how node ids
are digested.  Every node gets its value key when it is created --
(kind, ``order_key``, owner, then its children's value keys and probe
atoms) -- and every ordering over nodes reads it, ``stream_children``
(the m-join's supplier order) too.  An id is only an identity: two
equal ids are the graft.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.common.errors import OptimizationError
from repro.keyword.queries import ConjunctiveQuery
from repro.optimizer.bestplan import BestPlanResult
from repro.optimizer.cost import CostModel
from repro.plan.expressions import SPJ


def _digest(payload: object) -> str:
    return hashlib.blake2s(repr(payload).encode(), digest_size=8).hexdigest()


def source_node_id(owner: str, expr: SPJ) -> str:
    """The graft identity of one streaming input.

    ``owner`` is the sharing scope (graph id, or the user/conjunctive
    query id when sharing is off); the digest covers only the canonical
    expression, so structurally identical inputs collide -- that
    collision *is* the graft.
    """
    return f"src:{owner}:{_digest(expr.canonical_key)}"


def component_node_id(owner: str, expr: SPJ,
                      stream_children: tuple[str, ...],
                      probe_atoms: tuple[str, ...]) -> str:
    """The graft identity of one m-join component.

    ``stream_children`` and ``probe_atoms`` must already be in the
    spec's canonical (sorted, deduplicated) form.
    """
    return "cmp:%s:%s" % (
        owner, _digest((expr.canonical_key, stream_children, probe_atoms)),
    )


@dataclass(frozen=True)
class SourceSpec:
    """One streaming input of the assignment, to become an InputUnit."""

    source_id: str
    expr: SPJ
    value_key: tuple


@dataclass
class ComponentSpec:
    """One m-join component of the factorized plan.

    ``stream_children`` reference source or component ids, in the
    order of their value keys; ``probe_atoms`` are resolved by
    random-access sources.  ``cqs`` is the set of conjunctive queries
    whose plans flow through this component.
    """

    comp_id: str
    expr: SPJ
    stream_children: tuple[str, ...]
    probe_atoms: tuple[str, ...]
    value_key: tuple
    cqs: set[str] = field(default_factory=set)


@dataclass
class FactorizedPlan:
    """The full factorization of one optimized batch."""

    scope: str
    sources: dict[str, SourceSpec] = field(default_factory=dict)
    components: dict[str, ComponentSpec] = field(default_factory=dict)
    cq_final: dict[str, str] = field(default_factory=dict)
    cq_probe_atoms: dict[str, tuple[str, ...]] = field(default_factory=dict)


#: op key forms: ("join", idA, idB, combined_expr), idA's value key
#: first, or ("absorb", idA, probe_alias, combined_expr); without sharing
#: the owning CQ's id is appended, so no op is common to two queries.
_OpKey = tuple


class Factorization:
    """The region-merging state of one batch, maintained incrementally.

    Per CQ: its regions (node id -> covered aliases) and pending probe
    atoms.  Over the batch: the *op table*, every applicable
    join/absorb op with the set of CQs it is common to (its support).
    Applying an op rewrites the regions of the CQs in its support and
    of nobody else, so only their ops are re-enumerated; an op's rank
    addends -- the estimated cardinality of the expression it builds
    and its tie-break by value -- are computed once, when the op first
    enters the table.
    """

    def __init__(self, result: BestPlanResult, cqs: list[ConjunctiveQuery],
                 cost_model: CostModel, scope: str,
                 sharing: bool = True) -> None:
        self.cqs = cqs
        self.cost_model = cost_model
        self.scope = scope
        self.sharing = sharing
        self.plan = plan = FactorizedPlan(scope=scope)
        self.regions: dict[str, dict[str, frozenset[str]]] = {}
        #: node id -> its value key.
        self.keys: dict[str, tuple] = {}
        self.pending_probes: dict[str, set[str]] = {}
        for cq in cqs:
            self.regions[cq.cq_id] = {}
            self.pending_probes[cq.cq_id] = set(
                result.probes.get(cq.cq_id, ()))
            plan.cq_probe_atoms[cq.cq_id] = tuple(
                sorted(result.probes.get(cq.cq_id, ())))

        for expr, consumers in result.streams.items():
            for cq_id in consumers:
                if cq_id not in self.regions:
                    continue
                owner = scope if sharing else cq_id
                source_id = source_node_id(owner, expr)
                if source_id not in plan.sources:
                    value_key = ("src", expr.order_key, owner)
                    plan.sources[source_id] = SourceSpec(source_id, expr,
                                                         value_key)
                    self.keys[source_id] = value_key
                self.regions[cq_id][source_id] = frozenset(expr.aliases)

        #: op -> the CQs it is common to.
        self.ops: dict[_OpKey, set[str]] = {}
        #: op -> (estimated cardinality, tie-break), fixed per op.
        self._rank: dict[_OpKey, tuple[float, tuple]] = {}
        #: CQ -> the ops it currently supports.
        self._cq_ops: dict[str, list[_OpKey]] = {}
        for cq in cqs:
            self._enumerate(cq)

    def work_left(self) -> list[str]:
        """The CQs not yet computed by a single node."""
        return [
            cq.cq_id for cq in self.cqs
            if len(self.regions[cq.cq_id]) > 1
            or self.pending_probes[cq.cq_id]
        ]

    def best_op(self) -> _OpKey | None:
        """The op common to the most queries, ties toward the most
        selective, then by a total order on the op itself -- never by
        where the op sits in the table."""
        ops, rank = self.ops, self._rank
        if not ops:
            return None
        return min(ops, key=lambda key: (-len(ops[key]), *rank[key]))

    def apply(self, key: _OpKey) -> None:
        """Apply one op for every CQ in its support and bring the op
        table up to date: the support's CQs are the only ones whose
        regions changed, so they alone leave the table and re-enter it."""
        support = self.ops[key]
        self._merge_regions(key, support)
        members = [cq for cq in self.cqs if cq.cq_id in support]
        for cq in members:
            for stale in self._cq_ops[cq.cq_id]:
                remaining = self.ops[stale]
                remaining.discard(cq.cq_id)
                if not remaining:
                    del self.ops[stale]
                    del self._rank[stale]
        for cq in members:
            self._enumerate(cq)

    def _merge_regions(self, key: _OpKey, support: set[str]) -> None:
        """Build (or grow) the component an op stands for and make it
        the region of every supporting CQ."""
        plan = self.plan
        kind = key[0]
        combined: SPJ = key[3]
        children: list[str] = []
        probe_atoms: list[str] = []
        absorbed_ids: list[str]
        if kind == "join":
            absorbed_ids = [key[1], key[2]]
        else:
            absorbed_ids = [key[1]]
            probe_atoms.append(key[2])
        for node_id in absorbed_ids:
            spec = plan.components.get(node_id)
            if spec is not None and spec.cqs == support:
                # Exclusive component: flatten its inputs into the grown
                # m-join instead of stacking another operator (the paper's
                # "as few factored components as possible").
                children.extend(spec.stream_children)
                probe_atoms.extend(spec.probe_atoms)
                del plan.components[node_id]
            else:
                children.append(node_id)
        comp_scope = self.scope if self.sharing \
            else f"{self.scope}:{sorted(support)[0]}"
        keys = self.keys
        stream_children = tuple(sorted(set(children), key=keys.__getitem__))
        probe_atom_set = tuple(sorted(set(probe_atoms)))
        comp_id = component_node_id(comp_scope, combined, stream_children,
                                    probe_atom_set)
        existing = plan.components.get(comp_id)
        if existing is not None:
            existing.cqs.update(support)
        else:
            value_key = ("cmp", combined.order_key, comp_scope,
                         tuple(keys[c] for c in stream_children),
                         probe_atom_set)
            keys[comp_id] = value_key
            plan.components[comp_id] = ComponentSpec(
                comp_id=comp_id,
                expr=combined,
                stream_children=stream_children,
                probe_atoms=probe_atom_set,
                value_key=value_key,
                cqs=set(support),
            )
        combined_aliases = frozenset(combined.aliases)
        for cq_id in support:
            cq_regions = self.regions[cq_id]
            for node_id in absorbed_ids:
                cq_regions.pop(node_id, None)
            cq_regions[comp_id] = combined_aliases
            if kind == "absorb":
                self.pending_probes[cq_id].discard(key[2])

    def _enumerate(self, cq: ConjunctiveQuery) -> None:
        """Enter every op applicable to ``cq``'s current regions."""
        keys = self._cq_ops[cq.cq_id] = []
        expr = cq.expr
        owner = () if self.sharing else (cq.cq_id,)
        node_keys = self.keys
        region_items = sorted(self.regions[cq.cq_id].items(),
                              key=lambda item: node_keys[item[0]])
        probes = sorted(self.pending_probes[cq.cq_id])
        for i, (id_a, aliases_a) in enumerate(region_items):
            for id_b, aliases_b in region_items[i + 1:]:
                if _adjacent(expr, aliases_a, aliases_b):
                    keys.append(("join", id_a, id_b,
                                 expr.induced(aliases_a | aliases_b), *owner))
            for probe_alias in probes:
                if _adjacent(expr, aliases_a, (probe_alias,)):
                    keys.append(("absorb", id_a, probe_alias,
                                 expr.induced(aliases_a | {probe_alias}),
                                 *owner))
        for key in keys:
            support = self.ops.get(key)
            if support is None:
                self.ops[key] = {cq.cq_id}
                combined: SPJ = key[3]
                self._rank[key] = (
                    self.cost_model.est_cardinality(combined),
                    (key[0], node_keys[key[1]],
                     node_keys[key[2]] if key[0] == "join" else key[2],
                     combined.order_key, *owner),
                )
            else:
                support.add(cq.cq_id)

    def finish(self) -> FactorizedPlan:
        """Record which node computes each CQ."""
        plan = self.plan
        for cq in self.cqs:
            (final_id, aliases), = self.regions[cq.cq_id].items()
            if aliases != frozenset(cq.expr.aliases):
                raise OptimizationError(
                    f"{cq.cq_id}: final region covers {sorted(aliases)} != "
                    f"query atoms {sorted(cq.expr.aliases)}"
                )
            plan.cq_final[cq.cq_id] = final_id
            if final_id in plan.components:
                plan.components[final_id].cqs.add(cq.cq_id)
        return plan


def factorize(result: BestPlanResult, cqs: list[ConjunctiveQuery],
              cost_model: CostModel, scope: str,
              sharing: bool = True) -> FactorizedPlan:
    """Build the component DAG for one optimized batch.

    With ``sharing`` disabled, op support is evaluated per query, so
    every conjunctive query gets a private component chain -- the
    ATC-CQ baseline.
    """
    state = Factorization(result, cqs, cost_model, scope, sharing)
    guard = 0
    while state.work_left():
        guard += 1
        if guard > 10_000:
            raise OptimizationError(
                "factorization did not converge; region state: "
                f"{ {c: list(r) for c, r in state.regions.items()} }"
            )
        key = state.best_op()
        if key is None:
            raise OptimizationError(
                f"no applicable factorization op for queries "
                f"{state.work_left()}; their join graphs are likely "
                "disconnected"
            )
        state.apply(key)
    return state.finish()


def _adjacent(expr: SPJ, left: Iterable[str], right: Iterable[str]) -> bool:
    """Whether a join predicate of ``expr`` links the two alias sets."""
    adjacency = expr.adjacency
    neighbours = {n for alias in left for n in adjacency[alias]}
    return not neighbours.isdisjoint(right)
