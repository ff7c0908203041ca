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

The loop is incremental (:class:`Factorization`): the table of
applicable ops is maintained, not rebuilt, and the best op is read off
a heap, not found by a scan.  Applying an op rewrites, in the queries
of its support and in no one else, only the regions it absorbed.  So
each query keeps the list of ops it supports; after an op, only its
ops that touch an absorbed node (or the absorbed probe atom) leave the
table, and only the ops that pair the new component with the query's
other regions and pending probes enter it -- the same loop that, run
over every region, fills the table at construction.  An op's rank is
``(-|support|, estimate, tie-break)``; the addends -- the cost model's
cardinality estimate of the expression it builds and its tie-break --
are computed once, when the op enters the table.  Each change of an
op's support pushes a heap entry carrying the new support size; an
entry whose size no longer matches its op's support is stale and is
dropped when it surfaces, so the top live entry is the ``min`` of the
total order over the table.  A set of the queries not yet computed by
one node says when the loop is done.  The tie-break is total and reads
values only (kind, the value keys of the nodes merged, and the
combined expression's :attr:`~repro.plan.expressions.SPJ.order_key`),
so which of two tied ops wins depends neither on the order of the
batch nor on how node ids are digested.  Every node gets its value key
when it is created -- (kind, ``order_key``, owner, then its children's
value keys and probe atoms) -- and every ordering over nodes reads it,
``stream_children`` (the m-join's supplier order) too.  An id is only
an identity: two equal ids are the graft.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
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


#: Join/absorb ops applied by every factorization in this process.
_ops_applied = 0


def ops_applied() -> int:
    """How many join/absorb ops every factorization in this process has
    applied so far.  The optimizer records the difference across one
    invocation, so an invocation that factorizes twice counts both."""
    return _ops_applied


#: op key forms: ("join", idA, idB, combined_expr), idA's value key
#: first, or ("absorb", idA, probe_alias, combined_expr); without sharing
#: the owning CQ's id is appended, so no op is common to two queries.
_OpKey = tuple
#: One op's table record: its support (the CQs it is common to), then
#: its rank addends -- the estimated cardinality of the expression it
#: builds and its tie-break by value.  The support set is the op's
#: identity in the heap: it is created with the record and dropped,
#: empty, with it.
_OpRecord = tuple[set[str], float, tuple]


class Factorization:
    """The region-merging state of one batch, maintained incrementally.

    Per CQ: its regions (node id -> covered aliases), its pending probe
    atoms and the ops it supports.  Over the batch: the *op table*,
    every applicable join/absorb op with its support and its rank
    addends (computed once, when the op enters the table), a heap over
    the ops' rank, and the set of CQs not yet computed by one node.
    Applying an op rewrites, in the CQs of its support only, the
    regions it absorbed: only the ops touching those (or the absorbed
    probe) leave, and only the ops pairing the new component with the
    CQ's other regions and pending probes enter.  Every change of an
    op's support pushes a heap entry; an entry whose support has
    changed size since it was pushed is stale and skipped when it
    surfaces.
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
            aliases = frozenset(expr.aliases)
            shared_id = source_node_id(scope, expr) if sharing else None
            for cq_id in consumers:
                if cq_id not in self.regions:
                    continue
                owner = scope if sharing else cq_id
                source_id = shared_id or source_node_id(owner, expr)
                if source_id not in plan.sources:
                    value_key = ("src", expr.order_key, owner)
                    plan.sources[source_id] = SourceSpec(source_id, expr,
                                                         value_key)
                    self.keys[source_id] = value_key
                self.regions[cq_id][source_id] = aliases

        #: CQ id -> the CQ, and its position in the batch.
        self._cq_by_id = {cq.cq_id: cq for cq in cqs}
        self._position = {cq.cq_id: i for i, cq in enumerate(cqs)}
        #: The CQs not yet computed by a single node.
        self.unfinished = {
            cq.cq_id for cq in cqs
            if len(self.regions[cq.cq_id]) > 1
            or self.pending_probes[cq.cq_id]
        }
        #: op -> its record.
        self._table: dict[_OpKey, _OpRecord] = {}
        #: CQ -> the ops it currently supports, with their records.
        self._cq_ops: dict[str, list[tuple[_OpKey, _OpRecord]]] = {}
        for cq in cqs:
            self._cq_ops[cq.cq_id] = []
            self._enter(cq, sorted(self.regions[cq.cq_id],
                                   key=self.keys.__getitem__), [])
        self._pushes = itertools.count()
        #: (-|support|, estimate, tie-break, push number, op, support).
        self._heap = [
            (-len(support), estimate, tie, next(self._pushes), key, support)
            for key, (support, estimate, tie) in self._table.items()
        ]
        heapq.heapify(self._heap)

    @property
    def ops(self) -> dict[_OpKey, set[str]]:
        """Every applicable op with its support."""
        return {key: record[0] for key, record in self._table.items()}

    @property
    def ranks(self) -> dict[_OpKey, tuple[float, tuple]]:
        """Every applicable op's rank addends."""
        return {key: record[1:] for key, record in self._table.items()}

    def work_left(self) -> list[str]:
        """The CQs not yet computed by a single node, in batch order."""
        return sorted(self.unfinished, key=self._position.__getitem__)

    def best_op(self) -> _OpKey | None:
        """The op common to the most queries, ties toward the most
        selective, then by a total order on the op itself -- never by
        where the op sits in the table."""
        heap = self._heap
        while heap:
            top = heap[0]
            if len(top[5]) == -top[0]:
                return top[4]
            heapq.heappop(heap)
        return None

    def apply(self, key: _OpKey) -> None:
        """Apply one op for every CQ in its support and bring the op
        table up to date: in the support's CQs, the ops touching what
        the op absorbed leave, and the ops of the new component enter."""
        global _ops_applied
        _ops_applied += 1
        support = self._table[key][0]
        members = sorted(support, key=self._position.__getitem__)
        absorbed, comp_id = self._merge_regions(key, support)
        probe = key[2] if key[0] == "absorb" else None
        changed: list[tuple[_OpKey, _OpRecord]] = []
        for cq_id in members:
            kept = []
            for entry in self._cq_ops[cq_id]:
                op = entry[0]
                if op[1] in absorbed or (
                        op[2] in absorbed if op[0] == "join"
                        else op[2] == probe):
                    op_support = entry[1][0]
                    op_support.discard(cq_id)
                    if op_support:
                        changed.append(entry)
                    else:
                        del self._table[op]
                else:
                    kept.append(entry)
            self._cq_ops[cq_id] = kept
        for cq_id in members:
            self._enter(self._cq_by_id[cq_id], (comp_id,), changed)
            if len(self.regions[cq_id]) == 1 \
                    and not self.pending_probes[cq_id]:
                self.unfinished.discard(cq_id)
        heap, pushes = self._heap, self._pushes
        for op, (op_support, estimate, tie) in changed:
            if op_support:
                heapq.heappush(heap, (-len(op_support), estimate, tie,
                                      next(pushes), op, op_support))

    def _merge_regions(self, key: _OpKey, support: set[str]
                       ) -> tuple[list[str], str]:
        """Build (or grow) the component an op stands for and make it
        the region of every supporting CQ; return the node ids it
        absorbed and its own."""
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
        return absorbed_ids, comp_id

    def _enter(self, cq: ConjunctiveQuery, fresh: Iterable[str],
               changed: list[tuple[_OpKey, _OpRecord]]) -> None:
        """Enter every op of ``cq`` that involves a node of ``fresh``:
        each joins it to another region it is adjacent to, or absorbs a
        pending probe atom into it.  At construction ``fresh`` is every
        region; after an op, the component it made."""
        cq_id = cq.cq_id
        expr = cq.expr
        owner = () if self.sharing else (cq_id,)
        node_keys = self.keys
        regions = self.regions[cq_id]
        probes = sorted(self.pending_probes[cq_id])
        adjacency = expr.adjacency
        table = self._table
        cq_ops = self._cq_ops[cq_id]
        entered: set[str] = set()
        for id_a in fresh:
            aliases_a = regions[id_a]
            # The aliases a join predicate links to the region.
            near = {n for alias in aliases_a for n in adjacency[alias]}
            new: list[_OpKey] = []
            for id_b, aliases_b in regions.items():
                if id_b != id_a and id_b not in entered \
                        and not near.isdisjoint(aliases_b):
                    pair = (id_a, id_b) \
                        if node_keys[id_a] < node_keys[id_b] else (id_b, id_a)
                    new.append(("join", *pair,
                                expr.induced(aliases_a | aliases_b), *owner))
            for probe_alias in probes:
                if probe_alias in near:
                    new.append(("absorb", id_a, probe_alias,
                                expr.induced(aliases_a | {probe_alias}),
                                *owner))
            entered.add(id_a)
            for key in new:
                record = table.get(key)
                if record is None:
                    combined: SPJ = key[3]
                    record = table[key] = (
                        {cq_id},
                        self.cost_model.est_cardinality(combined),
                        (key[0], node_keys[key[1]],
                         node_keys[key[2]] if key[0] == "join" else key[2],
                         combined.order_key, *owner),
                    )
                else:
                    record[0].add(cq_id)
                entry = (key, record)
                cq_ops.append(entry)
                changed.append(entry)

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
    while state.unfinished:
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
