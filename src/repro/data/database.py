"""Simulated remote site databases.

The paper's middleware talks to remote MySQL servers that can (a) stream
the results of a pushed-down SQL subquery in nonincreasing score order
and (b) answer key-probe lookups.  :class:`Database` reproduces exactly
that contract for one *site* of the federation, entirely in memory:

* :meth:`Database.scan_sorted` -- score-ordered scan of one relation
  (with optional selections), the basis of streaming sources;
* :meth:`Database.probe` -- indexed key lookup, the basis of
  random-access sources;
* :meth:`Database.ranked_producer` -- evaluate a pushed-down
  select-project-join subexpression locally at the site, rank by rank
  and only as deep as it is read, which is what the optimizer's
  push-down decisions (Section 5.1) translate to and what a streaming
  source reads;
* :meth:`Database.execute_spj` -- the same result computed in full and
  sorted by intrinsic score: the producer's test oracle.

A :class:`Federation` bundles the per-site databases behind one facade
and also serves the statistics (cardinalities, distinct key counts,
score maxima) that the cost model consumes.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.common.errors import DataError
from repro.data.rows import Row, Shape, STuple
from repro.data.schema import Relation, Schema
from repro.plan.expressions import SPJ, Selection

if TYPE_CHECKING:
    from repro.operators.ranked_join import RankedJoin


def _provenance_order(tup: STuple) -> tuple:
    """The batch path's order among results of equal score."""
    return tuple(sorted(tup.provenance))


@dataclass(frozen=True)
class RelationStats:
    """Optimizer-facing statistics for one relation."""

    cardinality: int
    distinct: Mapping[str, int]
    max_contribution: float

    def distinct_of(self, attr: str) -> int:
        """Distinct value count for ``attr`` (>= 1 so ratios stay finite)."""
        return max(1, self.distinct.get(attr, self.cardinality or 1))


class _Table:
    """Storage for one relation at one site: rows, key indexes, rank order."""

    def __init__(self, relation: Relation) -> None:
        self.relation = relation
        self.rows: list[Row] = []
        self.contributions: dict[int, float] = {}
        self.indexes: dict[str, dict[Any, list[int]]] = {
            attr: {} for attr in relation.key_attributes
        }
        self.sorted_tids: list[int] = []
        self._dirty = False

    def insert(self, values: Mapping[str, Any]) -> Row:
        missing = set(self.relation.attribute_names) - set(values)
        if missing:
            raise DataError(
                f"row for {self.relation.name!r} missing attributes "
                f"{sorted(missing)}"
            )
        tid = len(self.rows)
        row = Row(self.relation.name, tid, dict(values))
        self.rows.append(row)
        contribution = sum(
            float(values[attr]) for attr in self.relation.score_attributes
        )
        self.contributions[tid] = contribution
        for attr, index in self.indexes.items():
            index.setdefault(values[attr], []).append(tid)
        self._dirty = True
        return row

    def _ensure_sorted(self) -> None:
        if self._dirty:
            self.sorted_tids = sorted(
                range(len(self.rows)),
                key=lambda tid: (-self.contributions[tid], tid),
            )
            self._dirty = False

    def scan_sorted(self) -> list[int]:
        self._ensure_sorted()
        return self.sorted_tids

    def stats(self) -> RelationStats:
        distinct = {
            attr: len(index) for attr, index in self.indexes.items()
        }
        max_contribution = max(self.contributions.values(), default=0.0)
        return RelationStats(len(self.rows), distinct, max_contribution)


class Database:
    """One simulated remote DBMS hosting a subset of the schema."""

    def __init__(self, site: str, schema: Schema) -> None:
        self.site = site
        self.schema = schema
        self._tables: dict[str, _Table] = {}
        for relation in schema.relations_at(site):
            self._tables[relation.name] = _Table(relation)

    # -- loading -----------------------------------------------------------

    def load(self, relation: str, rows: Iterable[Mapping[str, Any]]) -> int:
        """Bulk-insert rows; returns the number inserted."""
        table = self._table(relation)
        count = 0
        for values in rows:
            table.insert(values)
            count += 1
        return count

    def insert(self, relation: str, values: Mapping[str, Any]) -> Row:
        return self._table(relation).insert(values)

    def _table(self, relation: str) -> _Table:
        try:
            return self._tables[relation]
        except KeyError:
            raise DataError(
                f"site {self.site!r} does not host relation {relation!r}"
            ) from None

    def hosts(self, relation: str) -> bool:
        return relation in self._tables

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    # -- statistics ----------------------------------------------------------

    def stats(self, relation: str) -> RelationStats:
        return self._table(relation).stats()

    def cardinality(self, relation: str) -> int:
        return len(self._table(relation).rows)

    def contribution(self, relation: str, tid: int) -> float:
        return self._table(relation).contributions[tid]

    # -- access paths ----------------------------------------------------------

    def scan_sorted(self, relation: str,
                    selections: Sequence[Selection] = ()) -> list[Row]:
        """All rows of ``relation`` satisfying ``selections``, sorted by
        nonincreasing score contribution (ties by tid)."""
        table = self._table(relation)
        out = []
        for tid in table.scan_sorted():
            row = table.rows[tid]
            if all(sel.matches(row.values) for sel in selections):
                out.append(row)
        return out

    def probe(self, relation: str, attr: str, value: Any,
              selections: Sequence[Selection] = ()) -> list[Row]:
        """Indexed lookup of rows with ``attr == value``.

        Requires ``attr`` to be a key attribute (indexed); score order
        is preserved among the matches.
        """
        table = self._table(relation)
        if attr not in table.indexes:
            raise DataError(
                f"{relation}.{attr} is not indexed at site {self.site!r}; "
                f"indexed attributes: {sorted(table.indexes)}"
            )
        tids = table.indexes[attr].get(value, [])
        rows = [table.rows[tid] for tid in tids]
        rows.sort(key=lambda r: (-table.contributions[r.tid], r.tid))
        if selections:
            rows = [r for r in rows
                    if all(sel.matches(r.values) for sel in selections)]
        return rows

    # -- pushed-down subqueries ------------------------------------------------

    def execute_spj(self, expr: SPJ) -> list[STuple]:
        """Evaluate a select-project-join expression hosted at this site.

        Every atom must name a relation stored here.  The result is the
        complete join, sorted by nonincreasing intrinsic score, which a
        :class:`~repro.data.sources.StreamingSource` then doles out
        tuple by tuple with simulated network delays.
        """
        self._check_pushable(expr)
        candidates: dict[str, list[Row]] = {}
        contrib_maps: dict[str, dict[int, float]] = {}
        for atom in expr.atoms:
            candidates[atom.alias] = self.scan_sorted(
                atom.relation, expr.selections_on(atom.alias)
            )
            contrib_maps[atom.alias] = self._table(atom.relation).contributions
        order = self._join_order(expr, candidates)
        first = order[0]
        first_contribs = contrib_maps[first]
        partials = [
            STuple.single(first, row, first_contribs[row.tid])
            for row in candidates[first]
        ]
        for depth, alias in enumerate(order[1:], start=1):
            # Every partial binds order[:depth], in that order.
            preds = [
                (pred.side_for(alias)[0],
                 order.index(pred.other(alias)),
                 pred.side_for(pred.other(alias))[0])
                for pred in expr.joins_on(alias)
                if pred.other(alias) in order[:depth]
            ]
            index: dict[tuple[Any, ...], list[Row]] = {}
            for row in candidates[alias]:
                values = row.values
                key = tuple(values[my_attr] for my_attr, _p, _oa in preds)
                index.setdefault(key, []).append(row)
            alias_contribs = contrib_maps[alias]
            grown: list[STuple] = []
            append = grown.append
            for partial in partials:
                bound_rows = partial.rows
                key = tuple(
                    bound_rows[position].values[other_attr]
                    for _my, position, other_attr in preds
                )
                rows = index.get(key)
                if rows:
                    for row in rows:
                        append(partial.extend_one(
                            alias, row, alias_contribs[row.tid]))
            partials = grown
            if not partials:
                break
        partials.sort(key=lambda t: (-t.intrinsic, sorted(t.provenance)))
        return partials

    def ranked_producer(self, expr: SPJ) -> RankedJoin:
        """Incremental, ranked evaluation of a pushed-down expression.

        Returns the ranked-join core over the expression's relations,
        each an input read in :meth:`scan_sorted` order.  Its results,
        read through ``result(i)``, are *identical* to
        :meth:`execute_spj`'s list, but computed lazily: streaming
        sources that read only a prefix (the common case -- top-k
        processing stops early) no longer pay for joining and sorting
        the full result at the site.  Two things make them identical:
        held results are ordered by sorted provenance, as the batch
        path sorts ties; and every result is laid out in the batch
        path's join order before it is scored, so its contributions
        are summed in the same order.
        """
        # The core is the operators' (their package imports this one).
        from repro.operators.ranked_join import ProbeTarget, RankedJoin

        self._check_pushable(expr)
        candidates = {
            atom.alias: self.scan_sorted(
                atom.relation, expr.selections_on(atom.alias))
            for atom in expr.atoms
        }

        def ranked(alias: str, relation: str) -> Iterable[STuple]:
            contributions = self._table(relation).contributions
            for row in candidates[alias]:
                yield STuple.single(alias, row, contributions[row.tid])

        return RankedJoin(
            expr.joins,
            [ProbeTarget.over_prefix(atom.alias, frozenset((atom.alias,)),
                                     ranked(atom.alias, atom.relation))
             for atom in expr.atoms],
            key=_provenance_order,
            layout=Shape.of(tuple(self._join_order(expr, candidates))),
            adaptive=False, name=self.site)

    def _check_pushable(self, expr: SPJ) -> None:
        for atom in expr.atoms:
            if not self.hosts(atom.relation):
                raise DataError(
                    f"cannot push {expr!r} to site {self.site!r}: "
                    f"relation {atom.relation!r} is hosted elsewhere"
                )
        if not expr.is_connected():
            raise DataError(
                f"refusing to execute disconnected expression {expr!r} "
                "(cross products are never pushed down)"
            )

    def _join_order(self, expr: SPJ,
                    candidates: Mapping[str, list[Row]]) -> list[str]:
        """Greedy connected join order starting from the smallest input."""
        remaining = set(expr.aliases)
        start = min(remaining, key=lambda a: (len(candidates[a]), a))
        order = [start]
        remaining.remove(start)
        while remaining:
            frontier = [
                alias for alias in remaining
                if any(pred.other(alias) in order
                       for pred in expr.joins_on(alias))
            ]
            if not frontier:
                raise DataError(
                    f"join graph of {expr!r} became disconnected during "
                    "ordering; this indicates a malformed expression"
                )
            nxt = min(frontier, key=lambda a: (len(candidates[a]), a))
            order.append(nxt)
            remaining.remove(nxt)
        return order


#: Source of :attr:`Federation.stats_epoch` stamps: unique across every
#: federation of the process, so a value memoized under one stamp is
#: never mistaken for another corpus's.
_STATS_EPOCHS = itertools.count(1)


class Federation:
    """All sites of the data-integration scenario behind one facade.

    Statistics are memoized per relation: the corpus is immutable while
    serving, so the optimizer's cardinality estimates must not resolve
    relation -> site -> table and recount the indexes per lookup.
    Loading goes through :meth:`load`, which drops the relation's entry
    and moves :attr:`stats_epoch` on -- whatever was derived from the
    old statistics (the cost model's per-expression estimates) is
    stamped with the epoch it was computed under and dies with it.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._sites: dict[str, Database] = {
            site: Database(site, schema) for site in schema.sites()
        }
        self._stats: dict[str, RelationStats] = {}
        self.stats_epoch = next(_STATS_EPOCHS)

    @property
    def sites(self) -> tuple[str, ...]:
        return tuple(self._sites)

    def database(self, site: str) -> Database:
        try:
            return self._sites[site]
        except KeyError:
            raise DataError(f"unknown site {site!r}") from None

    def database_for(self, relation: str) -> Database:
        return self.database(self.schema.relation(relation).site)

    def load(self, relation: str, rows: Iterable[Mapping[str, Any]]) -> int:
        self._stats.pop(relation, None)
        self.stats_epoch = next(_STATS_EPOCHS)
        return self.database_for(relation).load(relation, rows)

    def stats(self, relation: str) -> RelationStats:
        stats = self._stats.get(relation)
        if stats is None:
            stats = self.database_for(relation).stats(relation)
            self._stats[relation] = stats
        return stats

    def cardinality(self, relation: str) -> int:
        return self.database_for(relation).cardinality(relation)

    def site_of_expression(self, expr: SPJ) -> str | None:
        """The single site hosting every atom of ``expr``, or ``None``
        if its relations span sites (such expressions cannot be pushed
        down and must be joined in the middleware)."""
        sites = {
            self.schema.relation(atom.relation).site for atom in expr.atoms
        }
        if len(sites) == 1:
            return next(iter(sites))
        return None

    def execute_spj(self, expr: SPJ) -> list[STuple]:
        site = self.site_of_expression(expr)
        if site is None:
            raise DataError(
                f"expression {expr!r} spans multiple sites and cannot be "
                "executed by a single remote database"
            )
        return self.database(site).execute_spj(expr)
