"""AND-OR graph: the multi-query optimizer's memoization structure.

Section 5.1.2: "we employ a memoization structure called an AND-OR
graph, commonly used in multi-query optimization [26].  The AND-OR
representation of subexpressions is a directed acyclic graph that
consists of alternating levels of two types of nodes: 'OR' nodes that
encode equivalent subexpressions, and 'AND' nodes that encode selection
and join operations."

Here an :class:`OrNode` is one equivalence class of subexpressions
(keyed by the expression value -- aliases are shared across queries in
this pipeline, so value equality is equivalence), and each
:class:`AndNode` under it is one way of building it: joining two
smaller OR nodes, or scanning a base relation (with its selections).
The optimizer enumerates the graph over every connected fragment of
every query in the batch, then reads candidate inputs off the OR nodes.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from repro.plan.expressions import SPJ

if TYPE_CHECKING:  # avoid a circular import; only needed for typing
    from repro.keyword.queries import ConjunctiveQuery


@dataclass(frozen=True)
class AndNode:
    """One way to construct an OR node's expression.

    ``kind`` is ``"scan"`` (base relation + selections) or ``"join"``
    (combine the two child OR nodes; the crossing predicates are
    implied by the parent expression).
    """

    kind: str
    children: tuple[SPJ, ...]

    def __repr__(self) -> str:
        if self.kind == "scan":
            return "And(scan)"
        return f"And(join {' + '.join(c.describe() for c in self.children)})"


@dataclass
class OrNode:
    """An equivalence class of subexpressions across the query batch."""

    expr: SPJ
    queries: set[str] = field(default_factory=set)

    @property
    def size(self) -> int:
        return self.expr.size

    @cached_property
    def alternatives(self) -> list[AndNode]:
        """The AND alternatives: every way of building ``expr``.

        Derived on first access -- candidate enumeration reads only
        ``expr`` and ``queries`` off the memo, so a serving path never
        pays for the bipartition enumeration.
        """
        expr = self.expr
        if expr.size == 1:
            return [AndNode("scan", (expr,))]
        out: list[AndNode] = []
        everything = frozenset(expr.aliases)
        # Every connected bipartition (A, B) of the fragment yields a
        # join alternative.  Enumerate connected subsets A containing
        # the first alias to avoid the (A, B)/(B, A) double count.
        for left_aliases in _connected_subsets_containing(
                expr, expr.aliases[0]):
            if len(left_aliases) == expr.size:
                continue
            right = expr.induced(everything - left_aliases)
            if not right.is_connected():
                continue
            if not any((p.left_alias in left_aliases)
                       != (p.right_alias in left_aliases)
                       for p in expr.joins):
                continue
            out.append(AndNode("join", (expr.induced(left_aliases), right)))
        return out

    def __repr__(self) -> str:
        return (f"Or({self.expr.describe()}, alts={len(self.alternatives)}, "
                f"queries={sorted(self.queries)})")


def _connected_subsets_containing(expr: SPJ, anchor: str
                                  ) -> list[frozenset[str]]:
    found: set[frozenset[str]] = {frozenset((anchor,))}
    frontier = [frozenset((anchor,))]
    while frontier:
        subset = frontier.pop()
        reachable: set[str] = set()
        for alias in subset:
            reachable.update(expr.adjacency[alias])
        for alias in reachable - subset:
            grown = subset | {alias}
            if grown not in found:
                found.add(grown)
                frontier.append(grown)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


class AndOrGraph:
    """The memo over every connected fragment of a batch of queries."""

    def __init__(self, max_fragment_size: int = 4) -> None:
        self.max_fragment_size = max_fragment_size
        self._nodes: dict[SPJ, OrNode] = {}

    # -- construction ----------------------------------------------------------

    def add_queries(self, queries: Iterable["ConjunctiveQuery"]) -> None:
        """Enumerate all fragments of the given queries into the memo."""
        for cq in queries:
            limit = min(self.max_fragment_size, cq.expr.size)
            for fragment in cq.expr.connected_subexpressions(
                    min_size=1, max_size=limit):
                node = self._nodes.get(fragment)
                if node is None:
                    node = self._nodes[fragment] = OrNode(fragment)
                node.queries.add(cq.cq_id)

    # -- queries over the memo ----------------------------------------------------

    def node(self, expr: SPJ) -> OrNode | None:
        return self._nodes.get(expr)

    @property
    def nodes(self) -> tuple[OrNode, ...]:
        return tuple(self._nodes.values())

    def shared_nodes(self, min_queries: int = 2) -> list[OrNode]:
        """OR nodes used by at least ``min_queries`` distinct queries --
        the raw material for push-down candidates."""
        return [n for n in self._nodes.values()
                if len(n.queries) >= min_queries]

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return f"AndOrGraph({len(self._nodes)} OR nodes)"
