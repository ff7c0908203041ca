"""Candidate-network generation.

Converts a keyword query into the ranked list of conjunctive queries
(candidate networks) that a keyword-search system like DISCOVER [13] or
the Q System's query generator [33] would produce: join trees over the
schema graph in which every keyword is matched by some relation (via
metadata or content; Figure 1 of the paper) and content matches become
``contains`` selections.

The paper treats this stage as a black box ("we assume a set of
conjunctive queries for each search, generated using any of the methods
cited in Section 2.1"), so we implement the canonical approach:

1. match each keyword against relations (:class:`InvertedIndex`);
2. enumerate combinations of one match per keyword, best-first;
3. connect each combination into join trees over the schema graph
   (shortest connection first, then alternates via edge-exclusion),
   mirroring how DISCOVER grows candidate networks of increasing size;
4. emit each distinct tree as a ConjunctiveQuery with the configured
   scoring model, capped at ``max_cqs`` per user query (paper: 20).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping, Sequence
from typing import TYPE_CHECKING

from repro.common.errors import QueryError
from repro.data.database import Federation
from repro.data.inverted import InvertedIndex, KeywordMatch
from repro.data.schema import Schema, SchemaEdge
from repro.keyword.queries import ConjunctiveQuery, KeywordQuery, UserQuery
from repro.plan.expressions import SPJ, Atom, JoinPred, Selection
from repro.scoring.models import qsystem_score

if TYPE_CHECKING:  # avoid a runtime cycle with the optimizer package
    from repro.optimizer.repository import PlanRepository

#: Signature of a scoring factory: (expr, federation) -> MonotoneScore.
ScoreFactory = Callable[[SPJ, Federation], object]


class CandidateNetworkGenerator:
    """Generates user queries (sets of CQs) from keyword queries."""

    #: Cap on memoized Steiner trees, FIFO-evicted (a miss only costs
    #: the BFS again).
    MAX_STEINER_TREES = 8192

    def __init__(self, federation: Federation, index: InvertedIndex | None = None,
                 score_factory: ScoreFactory | None = None,
                 max_cqs: int = 20, max_tree_size: int = 7,
                 max_matches_per_keyword: int = 4,
                 alternates_per_combination: int = 2,
                 repository: "PlanRepository | None" = None) -> None:
        self.federation = federation
        self.schema: Schema = federation.schema
        self.index = index if index is not None else InvertedIndex(federation)
        self.score_factory = score_factory or qsystem_score
        self.max_cqs = max_cqs
        self.max_tree_size = max_tree_size
        self.max_matches_per_keyword = max_matches_per_keyword
        self.alternates_per_combination = alternates_per_combination
        #: When set, keyword-set -> expansion templates are interned in
        #: the plan repository: a repeated keyword set (in any order,
        #: duplicates collapsed) instantiates the cached template under
        #: fresh query ids instead of re-enumerating join trees.
        self.repository = repository
        #: The schema is static, so a Steiner tree is a pure function of
        #: (relations, banned edges) and each relation's BFS edge order
        #: is fixed: both are derived once per generator, not per query.
        self._steiner_memo: dict[tuple, tuple[SchemaEdge, ...] | None] = {}
        self._edge_order: dict[str, tuple[tuple[SchemaEdge, str], ...]] = {}

    # -- public API -----------------------------------------------------------

    def generate(self, kq: KeywordQuery) -> UserQuery:
        """Expand one keyword query into its user query."""
        template = None
        if self.repository is not None:
            template = self.repository.lookup_expansion(kq.keywords)
        if template is None:
            expansion = self._expand(kq)
            if self.repository is not None:
                # The template stores each expression's value, not the
                # interned object, so a cached expansion keeps no
                # expression (nor anything memoized on one) alive.
                self.repository.store_expansion(kq.keywords, tuple(
                    ((expr.atoms, expr.joins, expr.selections), score,
                     matches)
                    for expr, score, matches in expansion))
        else:
            expansion = [(SPJ._intern(*parts), score, matches)
                         for parts, score, matches in template]
        cqs = [
            ConjunctiveQuery(
                cq_id=f"{kq.kq_id}-cq{i}",
                uq_id=kq.kq_id,
                expr=expr,
                score=score,  # type: ignore[arg-type]
                matches=matches,
            )
            for i, (expr, score, matches) in enumerate(expansion)
        ]
        return UserQuery(uq_id=kq.kq_id, keywords=kq.keywords, cqs=cqs,
                         k=kq.k, arrival=kq.arrival, user=kq.user)

    def _expand(self, kq: KeywordQuery
                ) -> list[tuple[SPJ, object, tuple[KeywordMatch, ...]]]:
        """The expensive half of :meth:`generate`: keyword matching,
        join-tree enumeration, and scoring.  Returns the (expr, score,
        matches) triples in enumeration order -- everything about the
        expansion except the query ids, which is what makes the result
        a reusable template."""
        matches = {
            keyword: self.index.matches(keyword,
                                        self.max_matches_per_keyword)
            for keyword in kq.keywords
        }
        empty = [kw for kw, found in matches.items() if not found]
        if empty:
            raise QueryError(
                f"{kq.kq_id}: no relation matches keywords {empty}"
            )
        trees = self._enumerate_trees(matches)
        expansion = []
        for tree, combo in trees[: self.max_cqs]:
            expr = self._tree_to_spj(tree, combo)
            score = self.score_factory(expr, self.federation)
            expansion.append((expr, score, tuple(combo)))
        return expansion

    # -- tree enumeration -------------------------------------------------------

    def _enumerate_trees(
            self, matches: Mapping[str, list[KeywordMatch]]
    ) -> list[tuple[tuple[SchemaEdge, ...], list[KeywordMatch]]]:
        """All (tree, match-combination) pairs, best combinations first.

        A tree is represented by its schema edges (none when one
        relation covers every keyword).
        """
        keywords = sorted(matches)
        combos = []
        for combo in itertools.product(*(matches[kw] for kw in keywords)):
            strength = sum(m.strength for m in combo)
            combos.append((-strength, combo))
        combos.sort(key=lambda pair: (pair[0],
                                      tuple(m.relation for m in pair[1])))
        out: list[tuple[tuple[SchemaEdge, ...], list[KeywordMatch]]] = []
        seen: set[tuple] = set()
        budget = self.max_cqs * 3
        for _neg, combo in combos:
            for tree in self._connect(list(combo)):
                key = self._tree_key(tree, combo)
                if key in seen:
                    continue
                seen.add(key)
                out.append((tree, list(combo)))
                if len(out) >= budget:
                    return out
        return out

    def _connect(self, combo: Sequence[KeywordMatch]
                 ) -> list[tuple[SchemaEdge, ...]]:
        """Join trees connecting one match combination's relations.

        The base tree takes BFS-shortest connections; alternates
        re-route by banning one edge of the base tree at a time,
        producing the kind of path diversity seen in the paper's CQ1
        (via TP-E2M) versus CQ2 (via UP-RL).
        """
        relations = []
        for match in combo:
            if match.relation not in relations:
                relations.append(match.relation)
        base = self._steiner_tree(relations, banned=frozenset())
        if base is None:
            return []
        trees = [base]
        banned_sets: list[frozenset[tuple[str, str, str, str]]] = [
            frozenset({self._edge_key(edge)}) for edge in base
        ]
        for banned in banned_sets:
            if len(trees) > self.alternates_per_combination:
                break
            alternate = self._steiner_tree(relations, banned=banned)
            if alternate is not None and \
                    self._edges_key(alternate) != self._edges_key(base):
                trees.append(alternate)
        return trees

    def _steiner_tree(self, relations: Sequence[str],
                      banned: frozenset[tuple[str, str, str, str]]
                      ) -> tuple[SchemaEdge, ...] | None:
        """:meth:`_grow_steiner_tree`, memoized (FIFO-bounded)."""
        memo = self._steiner_memo
        key = (tuple(relations), banned)
        if key not in memo:
            tree = self._grow_steiner_tree(relations, banned)
            memo[key] = None if tree is None else tuple(tree)
            while len(memo) > self.MAX_STEINER_TREES:
                memo.pop(next(iter(memo)))
        return memo[key]

    def _grow_steiner_tree(self, relations: Sequence[str],
                           banned: frozenset[tuple[str, str, str, str]]
                           ) -> list[SchemaEdge] | None:
        """Greedy Steiner approximation: grow the tree one shortest
        path at a time from the first relation."""
        tree_nodes = {relations[0]}
        tree_edges: list[SchemaEdge] = []
        for target in relations[1:]:
            if target in tree_nodes:
                continue
            path = self._shortest_path_from_set(tree_nodes, target, banned)
            if path is None:
                return None
            for node_from, edge in path:
                tree_edges.append(edge)
                tree_nodes.add(edge.other(node_from))
                tree_nodes.add(node_from)
            if len(tree_nodes) > self.max_tree_size:
                return None
        return tree_edges

    def _shortest_path_from_set(self, sources: set[str], target: str,
                                banned: frozenset[tuple[str, str, str, str]]
                                ) -> list[tuple[str, SchemaEdge]] | None:
        """BFS from any source relation to ``target``, cheapest edges
        preferred at equal depth; returns [(from_node, edge), ...]."""
        parents: dict[str, tuple[str, SchemaEdge]] = {}
        seen = set(sources)
        frontier = sorted(sources)
        while frontier:
            next_frontier: list[str] = []
            for current in frontier:
                for edge, nxt in self._edges_from(current):
                    if self._edge_key(edge) in banned:
                        continue
                    if nxt in seen:
                        continue
                    seen.add(nxt)
                    parents[nxt] = (current, edge)
                    if nxt == target:
                        return self._unwind(parents, sources, target)
                    next_frontier.append(nxt)
            frontier = next_frontier
        return None

    def _edges_from(self, relation: str
                    ) -> tuple[tuple[SchemaEdge, str], ...]:
        """``relation``'s (edge, far end) pairs, cheapest edge first."""
        order = self._edge_order.get(relation)
        if order is None:
            edges = sorted(self.schema.edges_of(relation),
                           key=lambda e: (e.cost, e.other(relation)))
            order = self._edge_order[relation] = tuple(
                (e, e.other(relation)) for e in edges)
        return order

    def _unwind(self, parents: dict[str, tuple[str, SchemaEdge]],
                sources: set[str], target: str
                ) -> list[tuple[str, SchemaEdge]]:
        path: list[tuple[str, SchemaEdge]] = []
        node = target
        while node not in sources:
            prev, edge = parents[node]
            path.append((prev, edge))
            node = prev
        path.reverse()
        return path

    @staticmethod
    def _edge_key(edge: SchemaEdge) -> tuple[str, str, str, str]:
        return (edge.left_relation, edge.left_attr,
                edge.right_relation, edge.right_attr)

    def _edges_key(self, edges: Sequence[SchemaEdge]) -> frozenset:
        return frozenset(self._edge_key(e) for e in edges)

    def _tree_key(self, tree: Sequence[SchemaEdge],
                  combo: Sequence[KeywordMatch]) -> tuple:
        selections = frozenset(
            (m.relation, m.attr, m.keyword)
            for m in combo if m.via == "content"
        )
        return (self._edges_key(tree), selections)

    # -- SPJ construction ---------------------------------------------------------

    def _tree_to_spj(self, tree: Sequence[SchemaEdge],
                     combo: Sequence[KeywordMatch]) -> SPJ:
        """Convert a connection tree plus keyword matches into an SPJ.

        Every relation in the tree gets one atom aliased by its own
        name (trees over relation *sets* cannot repeat relations; the
        synonym-table pattern appears as distinct relations, as in the
        paper's TS).  Content matches add ``contains`` selections.
        """
        names: set[str] = set()
        for edge in tree:
            names.add(edge.left_relation)
            names.add(edge.right_relation)
        for match in combo:
            names.add(match.relation)
        atoms = [Atom(name, name) for name in sorted(names)]
        joins = [
            JoinPred.normalized(edge.left_relation, edge.left_attr,
                                edge.right_relation, edge.right_attr)
            for edge in tree
        ]
        selections = []
        for match in combo:
            selection = match.selection(match.relation)
            if selection is not None:
                selections.append(selection)
        return SPJ(atoms, joins, selections)
