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
    from repro.optimizer.repository import ExpansionTemplate, PlanRepository

#: Signature of a scoring factory: (skeleton, federation) -> MonotoneScore.
#: The generator calls it with a candidate network's *skeleton* -- its
#: atoms and joins, without the keyword selections -- and hands the
#: result to every conjunctive query with that skeleton until
#: ``Federation.load`` moves the statistics epoch on, so a factory may
#: read atoms, joins and the federation's statistics, never selections.
#: The three factories of :mod:`repro.scoring.models` read no more.
ScoreFactory = Callable[[SPJ, Federation], object]

#: One skeleton memo entry: its canonical atoms and joins, and its score.
_Skeleton = tuple[tuple[Atom, ...], tuple[JoinPred, ...], object]


def _fifo_put(memo: dict, key: object, value: object, cap: int) -> None:
    """Memoize ``value`` under ``key``, evicting the oldest entries
    beyond ``cap``."""
    memo[key] = value
    while len(memo) > cap:
        memo.pop(next(iter(memo)))


class CandidateNetworkGenerator:
    """Generates user queries (sets of CQs) from keyword queries.

    Every value an expansion is built from exists once per generator and
    is shared by each expansion, and each cached expansion template,
    that uses it:

    * one ``Atom`` per relation and one ``JoinPred`` per schema edge
      (bounded by the schema);
    * one list of ``KeywordMatch``es per keyword (FIFO under
      :attr:`MAX_KEYWORDS`; dropped, like the skeletons below, when the
      federation's statistics epoch moves, since loaded rows may match);
    * one ``Selection`` per content match (FIFO under
      :attr:`MAX_SELECTIONS`);
    * per skeleton -- a candidate network without its selections -- one
      pair of canonical ``(atoms, joins)`` tuples and one score (FIFO
      under :attr:`MAX_SKELETONS`; the whole memo is dropped when the
      federation's statistics epoch moves, so no score outlives the
      statistics its caps were read from);
    * within one expansion, one matches tuple and one selections tuple
      per match combination.
    """

    #: Caps on the memoized Steiner trees, keyword matches, content-match
    #: selections and skeletons, each FIFO-evicted: a miss only costs
    #: the work again.
    MAX_STEINER_TREES = 8192
    MAX_KEYWORDS = 8192
    MAX_SELECTIONS = 8192
    MAX_SKELETONS = 8192

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
        self._atoms = {name: Atom(name, name)
                       for name in self.schema.relation_names}
        self._joins: dict[SchemaEdge, JoinPred] = {}
        self._matches: dict[str, list[KeywordMatch]] = {}
        self._selections: dict[tuple[str, str, str], Selection] = {}
        self._skeletons: dict[tuple, _Skeleton] = {}
        self._epoch = federation.stats_epoch

    # -- public API -----------------------------------------------------------

    def generate(self, kq: KeywordQuery) -> UserQuery:
        """Expand one keyword query into its user query.

        A fresh expansion and a cached one are instantiated alike: each
        conjunctive query's expression is interned from its parts and
        its score read from the skeleton memo under the federation's
        current statistics."""
        if self.federation.stats_epoch != self._epoch:
            # Rows were loaded: matches and scores may both have moved.
            self._matches.clear()
            self._skeletons.clear()
            self._epoch = self.federation.stats_epoch
        template = None
        if self.repository is not None:
            template = self.repository.lookup_expansion(kq.keywords)
        if template is None:
            template = self._expand(kq)
            if self.repository is not None:
                self.repository.store_expansion(kq.keywords, template)
        cqs = []
        for i, ((atoms, joins, selections), matches) in enumerate(template):
            _atoms, _joins, score = self._skeleton(atoms, joins)
            cqs.append(ConjunctiveQuery(
                cq_id=f"{kq.kq_id}-cq{i}",
                uq_id=kq.kq_id,
                expr=SPJ._intern(atoms, joins, selections),
                score=score,  # type: ignore[arg-type]
                matches=matches,
            ))
        return UserQuery(uq_id=kq.kq_id, keywords=kq.keywords, cqs=cqs,
                         k=kq.k, arrival=kq.arrival, user=kq.user)

    def _expand(self, kq: KeywordQuery) -> "ExpansionTemplate":
        """The expensive half of :meth:`generate`: keyword matching and
        join-tree enumeration.  Returns each conjunctive query's
        canonical ``(atoms, joins, selections)`` and its matches, in
        enumeration order -- everything about the expansion except the
        query ids and the scores, which is what makes the result a
        reusable template."""
        matches = {keyword: self._keyword_matches(keyword)
                   for keyword in kq.keywords}
        empty = [kw for kw, found in matches.items() if not found]
        if empty:
            raise QueryError(
                f"{kq.kq_id}: no relation matches keywords {empty}"
            )
        expansion = []
        for tree, combo, selections in \
                self._enumerate_trees(matches)[: self.max_cqs]:
            atoms, joins, _score = self._skeleton(
                *self._skeleton_parts(tree, combo))
            expansion.append(((atoms, joins, selections), combo))
        return tuple(expansion)

    def _keyword_matches(self, keyword: str) -> list[KeywordMatch]:
        """:meth:`InvertedIndex.matches`, memoized (FIFO-bounded)."""
        found = self._matches.get(keyword)
        if found is None:
            found = self.index.matches(keyword, self.max_matches_per_keyword)
            _fifo_put(self._matches, keyword, found, self.MAX_KEYWORDS)
        return found

    # -- tree enumeration -------------------------------------------------------

    def _enumerate_trees(
            self, matches: Mapping[str, list[KeywordMatch]]
    ) -> list[tuple[tuple[SchemaEdge, ...], tuple[KeywordMatch, ...],
                    tuple[Selection, ...]]]:
        """All (tree, match combination, selections) triples, best
        combinations first; a combination's trees share its matches and
        selections tuples.

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
        out: list[tuple[tuple[SchemaEdge, ...], tuple[KeywordMatch, ...],
                        tuple[Selection, ...]]] = []
        seen: set[tuple] = set()
        budget = self.max_cqs * 3
        for _neg, combo in combos:
            selections = self._combo_selections(combo)
            for tree in self._connect(combo):
                key = (self._edges_key(tree), selections)
                if key in seen:
                    continue
                seen.add(key)
                out.append((tree, combo, selections))
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
            _fifo_put(memo, key, None if tree is None else tuple(tree),
                      self.MAX_STEINER_TREES)
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

    # -- SPJ construction ---------------------------------------------------------

    def _combo_selections(self, combo: Sequence[KeywordMatch]
                          ) -> tuple[Selection, ...]:
        """The canonical (sorted, duplicate-free) ``contains``
        selections a match combination imposes, one memoized
        ``Selection`` per content match."""
        selections = set()
        for match in combo:
            if match.via == "metadata" or match.attr is None:
                continue
            key = (match.relation, match.attr, match.keyword)
            selection = self._selections.get(key)
            if selection is None:
                selection = match.selection(match.relation)
                _fifo_put(self._selections, key, selection,
                          self.MAX_SELECTIONS)
            selections.add(selection)
        return tuple(sorted(selections))

    def _skeleton_parts(self, tree: Sequence[SchemaEdge],
                        combo: Sequence[KeywordMatch]
                        ) -> tuple[tuple[Atom, ...], tuple[JoinPred, ...]]:
        """The canonical atoms and joins of a connection tree plus its
        keyword matches.

        Every relation in the tree gets one atom aliased by its own
        name (trees over relation *sets* cannot repeat relations; the
        synonym-table pattern appears as distinct relations, as in the
        paper's TS).
        """
        names: set[str] = set()
        for edge in tree:
            names.add(edge.left_relation)
            names.add(edge.right_relation)
        for match in combo:
            names.add(match.relation)
        joins = set()
        for edge in tree:
            pred = self._joins.get(edge)
            if pred is None:
                pred = self._joins[edge] = JoinPred.normalized(
                    edge.left_relation, edge.left_attr,
                    edge.right_relation, edge.right_attr)
            joins.add(pred)
        return (tuple(self._atoms[name] for name in sorted(names)),
                tuple(sorted(joins)))

    def _skeleton(self, atoms: tuple[Atom, ...],
                  joins: tuple[JoinPred, ...]) -> _Skeleton:
        """The memoized canonical parts and score of one skeleton.  The
        score factory sees the skeleton itself, with no selections."""
        key = (atoms, joins)
        found = self._skeletons.get(key)
        if found is None:
            score = self.score_factory(SPJ._intern(atoms, joins, ()),
                                       self.federation)
            found = (atoms, joins, score)
            _fifo_put(self._skeletons, key, found, self.MAX_SKELETONS)
        return found
