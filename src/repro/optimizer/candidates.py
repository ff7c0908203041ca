"""Push-down candidate enumeration with the Section 5.1.1 heuristics.

The optimizer's first stage factors out of the batch a *candidate input
assignment* ``(S, S-map)``: subexpressions that could be evaluated at
the remote sites and streamed in, each with the set of conjunctive
queries that could consume it.  Exhaustive enumeration is intractable,
so the paper prunes:

1. **Consider queries as shared subexpressions** -- a query with few
   estimated results does not contribute its subexpressions as
   candidates, unless a different (larger) set of queries shares them.
2. **Only stream relations that have scoring attributes** -- a
   score-less relation read as a stream never tightens the threshold,
   so it becomes a probed source instead, unless its cardinality is
   under ``tau(R)``.
3. **Filter subexpressions by estimated utility** -- keep those shared
   by a minimum number of CQs or with low cardinality; prune those that
   are expensive at the source (joins that do not follow schema edges).
   Base streaming relations are not candidates: Algorithm 1 falls back
   to them whenever it completes an assignment.
4. **Do not consider overlapping pushed-down subexpressions** -- no
   query may stream the same base relation through two inputs; this is
   enforced structurally by :mod:`repro.optimizer.bestplan`'s
   consumer-set subtraction, matching the paper's Algorithm 1.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterator
from dataclasses import dataclass

from repro.common.config import ExecutionConfig
from repro.data.database import Federation
from repro.keyword.queries import ConjunctiveQuery
from repro.optimizer.cost import CostModel
from repro.plan.expressions import SPJ, Atom, JoinPred

#: Largest push-down fragment, in atoms.
MAX_PUSHDOWN_SIZE = 3


@dataclass(frozen=True)
class InputCandidate:
    """One push-down entry of the candidate assignment ``(S, S-map)``."""

    expr: SPJ
    consumers: frozenset[str]
    est_cardinality: float

    @property
    def aliases(self) -> frozenset[str]:
        return frozenset(self.expr.aliases)

    def overlaps(self, other: "InputCandidate") -> bool:
        return bool(self.aliases & other.aliases)

    def __repr__(self) -> str:
        return (f"Candidate({self.expr.describe()}, "
                f"consumers={sorted(self.consumers)})")


def streamable_aliases(cq: ConjunctiveQuery, federation: Federation,
                       config: ExecutionConfig) -> set[str]:
    """Aliases of ``cq`` that may appear in a streaming input.

    Heuristic 2: relations without score attributes are probed, not
    streamed -- unless small enough that exhausting them is cheaper
    than probing (``tau(R)``, configured offline per the paper).
    """
    out: set[str] = set()
    for atom in cq.expr.atoms:
        relation = federation.schema.relation(atom.relation)
        if relation.has_score:
            out.add(atom.alias)
        elif federation.cardinality(atom.relation) < config.tau_probe_threshold:
            out.add(atom.alias)
    return out


def driving_stream_aliases(cq: ConjunctiveQuery, federation: Federation,
                           config: ExecutionConfig) -> set[str]:
    """:func:`streamable_aliases`, guaranteed non-empty.

    Every m-join needs at least one driving stream; a CQ whose every
    atom is score-less *and* large has an empty streamable set, so the
    smallest relation is promoted to a stream anyway (exhausting it is
    the cheapest way to drive the join).  This used to be patched up
    inline in the engine per CQ per batch; it is an optimizer-layer
    decision, made once per CQ per optimizer invocation.
    """
    aliases = streamable_aliases(cq, federation, config)
    if not aliases:
        fallback = min(
            cq.expr.atoms,
            key=lambda a: federation.cardinality(a.relation),
        )
        aliases = {fallback.alias}
    return aliases


def _pushable(expr: SPJ, federation: Federation) -> bool:
    """Whether the sites can evaluate ``expr``: co-located, connected,
    and every join following a schema edge (heuristic 3's "expensive to
    compute at the source" filter)."""
    if federation.site_of_expression(expr) is None:
        return False
    if not expr.is_connected():
        return False
    schema = federation.schema
    alias_to_rel = expr.alias_to_relation
    for pred in expr.joins:
        left_rel = alias_to_rel[pred.left_alias]
        right_rel = alias_to_rel[pred.right_alias]
        found = False
        for edge in schema.edges_between(left_rel, right_rel):
            attrs = {
                (edge.left_relation, edge.left_attr),
                (edge.right_relation, edge.right_attr),
            }
            if attrs == {(left_rel, pred.left_attr),
                         (right_rel, pred.right_attr)}:
                found = True
                break
        if not found:
            return False
    return True


def _has_score(expr: SPJ, federation: Federation) -> bool:
    return any(
        federation.schema.relation(atom.relation).has_score
        for atom in expr.atoms
    )


class _PushdownSubsets:
    """One federation's push-down alias subsets, per skeleton.

    Whether the sites can evaluate a fragment and whether it carries a
    score (:func:`_pushable`, :func:`_has_score`) read its atoms, its
    joins and the federation's schema and site placement, never its
    selections.  So the fragments of 2..``MAX_PUSHDOWN_SIZE`` atoms
    that pass both are a function of the query's *skeleton* -- its
    atoms and joins -- and are found once per skeleton, then induced
    from every query with that skeleton.  Keyed by the parts, not by an
    expression, the memo keeps no expression alive; FIFO under
    :attr:`MAX_SKELETONS`, like the candidate-network generator's
    memos.
    """

    MAX_SKELETONS = 8192

    def __init__(self, federation: Federation) -> None:
        self.federation = federation
        self._subsets: dict[tuple, tuple[frozenset[str], ...]] = {}

    def __call__(self, atoms: tuple[Atom, ...], joins: tuple[JoinPred, ...]
                 ) -> tuple[frozenset[str], ...]:
        key = (atoms, joins)
        found = self._subsets.get(key)
        if found is None:
            found = tuple(self._passing(atoms, joins))
            self._subsets[key] = found
            while len(self._subsets) > self.MAX_SKELETONS:
                self._subsets.pop(next(iter(self._subsets)))
        return found

    def _passing(self, atoms: tuple[Atom, ...], joins: tuple[JoinPred, ...]
                 ) -> Iterator[frozenset[str]]:
        """The skeleton's connected alias subsets whose fragment passes
        both filters, in enumeration order.  Each fragment is interned
        apart from any query's ``induced`` memo."""
        skeleton = SPJ._intern(atoms, joins, ())
        for subset in skeleton.connected_alias_subsets(
                2, min(MAX_PUSHDOWN_SIZE, len(atoms))):
            fragment = SPJ._intern(
                tuple(a for a in atoms if a.alias in subset),
                tuple(j for j in joins if j.left_alias in subset
                      and j.right_alias in subset),
                ())
            if _pushable(fragment, self.federation) \
                    and _has_score(fragment, self.federation):
                yield subset


#: Federation -> its push-down subsets memo; weak, so a memo dies with
#: its federation.
_PUSHDOWN_SUBSETS: weakref.WeakKeyDictionary[Federation, _PushdownSubsets] \
    = weakref.WeakKeyDictionary()


def pushdown_subsets(federation: Federation) -> _PushdownSubsets:
    """``federation``'s memo of push-down alias subsets per skeleton."""
    memo = _PUSHDOWN_SUBSETS.get(federation)
    if memo is None:
        memo = _PUSHDOWN_SUBSETS[federation] = _PushdownSubsets(federation)
    return memo


def enumerate_candidates(cqs: list[ConjunctiveQuery],
                         federation: Federation,
                         cost_model: CostModel,
                         config: ExecutionConfig,
                         sharing: bool = True) -> list[InputCandidate]:
    """The push-down candidates ``(S, S-map)`` of one batch, most
    shared first, then most selective.

    Base-relation inputs are not candidates: Algorithm 1 falls back to
    them per CQ when it completes an assignment.  With ``sharing``
    disabled (the ATC-CQ baseline) there are no candidates at all, and
    the optimizer degenerates to per-CQ planning.
    """
    if not sharing:
        return []
    # The OR level of Section 5.1.2's AND-OR memo: every connected
    # fragment of 2..MAX_PUSHDOWN_SIZE atoms the sites can evaluate and
    # that carries a score, with the CQs it occurs in.  Only those
    # fragments are induced (each lands in its query's ``induced``
    # memo, which is what the plan repository's keyword table keeps).
    subsets_of = pushdown_subsets(federation)
    fragments: dict[SPJ, set[str]] = {}
    for cq in cqs:
        expr = cq.expr
        for subset in subsets_of(expr.atoms, expr.joins):
            fragments.setdefault(expr.induced(subset), set()).add(cq.cq_id)

    small_result_cqs = {
        cq.cq_id for cq in cqs
        if cost_model.est_cardinality(cq.expr) < config.k
    }

    out: list[InputCandidate] = []
    for expr, queries in fragments.items():
        consumers = frozenset(queries)
        # Heuristic 1: small-result queries do not contribute their
        # subexpressions unless a larger shared set exists.
        effective = consumers - small_result_cqs
        if not effective:
            continue
        # Streamable coverage: every alias of the fragment must be a
        # streamable-or-inside alias for every consumer; fragments are
        # induced from the consumers so this holds by construction, but
        # a consumer whose probe atoms intersect the fragment only via
        # score-less relations still benefits (they ride inside the
        # pushed-down join).
        card = cost_model.est_cardinality(expr)
        shared_enough = len(effective) >= config.min_sharing_queries
        selective_enough = card <= config.low_cardinality_bonus
        if not (shared_enough or selective_enough):
            continue
        # "Avoid forcing the optimizer to create a bad plan that
        # requires streaming in too many tuples": an unselected
        # pushdown has a flat score profile, so its stream must be read
        # very deep before thresholds drop; only selective or small
        # join subexpressions are worth materializing at the source.
        if not expr.selections and \
                card > cost_model.stream_preference_limit():
            continue
        kept_consumers = frozenset(
            c for c in consumers
            if c in effective or len(effective) >= config.min_sharing_queries
        )
        out.append(InputCandidate(expr, kept_consumers, card))
    # ``order_key`` last: ties then break by value, not by the order
    # the batch listed its CQs in.
    out.sort(key=lambda c: (-len(c.consumers), c.est_cardinality,
                            c.expr.describe(), c.expr.order_key))
    return out
