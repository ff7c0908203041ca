"""Simulated remote site databases.

The paper's middleware talks to remote MySQL servers that can (a) stream
the results of a pushed-down SQL subquery in nonincreasing score order
and (b) answer key-probe lookups.  :class:`Database` reproduces exactly
that contract for one *site* of the federation, entirely in memory:

* :meth:`Database.scan_sorted` -- score-ordered scan of one relation
  (with optional selections), the basis of streaming sources;
* :meth:`Database.probe` -- indexed key lookup, the basis of
  random-access sources;
* :meth:`Database.execute_spj` -- evaluate a pushed-down
  select-project-join subexpression locally at the site and return its
  full result sorted by intrinsic score, which is what the optimizer's
  push-down decisions (Section 5.1) translate to.

A :class:`Federation` bundles the per-site databases behind one facade
and also serves the statistics (cardinalities, distinct key counts,
score maxima) that the cost model consumes.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.common.errors import DataError
from repro.data.rows import Row, Shape, STuple
from repro.data.schema import Relation, Schema
from repro.plan.expressions import SPJ, Selection


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

    def ranked_producer(self, expr: SPJ) -> "RankedSPJProducer":
        """Incremental, ranked evaluation of a pushed-down expression.

        Returns a producer whose output sequence is *identical* to
        :meth:`execute_spj`'s list, but computed lazily: streaming
        sources that read only a prefix (the common case -- top-k
        processing stops early) no longer pay for joining and sorting
        the full result at the site.
        """
        return RankedSPJProducer(self, expr)

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


#: Safety margin for the producer's release gate: strictly larger than
#: accumulated float rounding on the corner bound, strictly smaller
#: than any meaningful score gap.
_BOUND_MARGIN = 1e-9


class RankedSPJProducer:
    """Rank-by-rank evaluation of one pushed-down SPJ expression.

    Produces exactly the sequence ``execute_spj`` returns -- results in
    nonincreasing intrinsic order, ties broken by sorted provenance --
    without materializing the full join first:

    * per-alias candidate rows are scanned in nonincreasing
      contribution order (the same ``scan_sorted`` the batch path
      uses);
    * each *pull* takes the next row of the alias attaining the HRJN
      corner bound, joins it against the already-pulled rows of the
      other aliases through hash indexes, and buffers the new results;
    * a buffered result is released only when its score strictly beats
      the corner bound (no future result can reach it), at which point
      every tie is already buffered and the heap's provenance ordering
      reproduces the batch path's sort exactly.

    Bit-identical scores: result tuples are canonicalized to the batch
    path's join order before scoring, so the float accumulation order
    (and therefore every downstream threshold comparison) is unchanged.
    """

    def __init__(self, database: Database, expr: SPJ) -> None:
        for atom in expr.atoms:
            if not database.hosts(atom.relation):
                raise DataError(
                    f"cannot push {expr!r} to site {database.site!r}: "
                    f"relation {atom.relation!r} is hosted elsewhere"
                )
        if not expr.is_connected():
            raise DataError(
                f"refusing to execute disconnected expression {expr!r} "
                "(cross products are never pushed down)"
            )
        self.expr = expr
        self.aliases = list(expr.aliases)
        self._cands: dict[str, list[Row]] = {}
        self._contribs: dict[str, dict[int, float]] = {}
        for atom in expr.atoms:
            self._cands[atom.alias] = database.scan_sorted(
                atom.relation, expr.selections_on(atom.alias)
            )
            self._contribs[atom.alias] = \
                database._table(atom.relation).contributions
        #: The batch path's join order; results are canonicalized to it
        #: so intrinsic scores accumulate identically.
        self._build_order = database._join_order(expr, self._cands)
        self._shape = Shape.of(tuple(self._build_order))
        self._pos = {alias: 0 for alias in self.aliases}
        #: An alias with no candidate rows can never contribute: the
        #: join is empty and no pull can change that.
        self._dead = any(not rows for rows in self._cands.values())
        if not self._dead:
            tops = {
                alias: self._contribs[alias][rows[0].tid]
                for alias, rows in self._cands.items()
            }
            total = sum(tops.values())
            self._others_top = {
                alias: total - tops[alias] for alias in self.aliases
            }
        else:
            self._others_top = {alias: 0.0 for alias in self.aliases}
        self._plans = {
            alias: self._extension_plan(alias) for alias in self.aliases
        }
        self._index_attrs: dict[str, set[str]] = {
            alias: set() for alias in self.aliases
        }
        for steps, _perm in self._plans.values():
            for target, (_o_pos, _o_attr, t_attr), _verify in steps:
                self._index_attrs[target].add(t_attr)
        self._indexes: dict[str, dict[str, dict[Any, list[Row]]]] = {
            alias: {attr: {} for attr in attrs}
            for alias, attrs in self._index_attrs.items()
        }
        #: (negated score, provenance sort key, result) min-heap.
        self._buffer: list[tuple[float, tuple, STuple]] = []

    def _extension_plan(self, start: str
                        ) -> tuple[list[tuple[str, tuple, list[tuple]]],
                                   tuple[int, ...]]:
        """Connected probe order for results driven by ``start``: per
        step the target alias, the probing predicate as ``(partial
        position, partial_attr, target_attr)``, and the remaining
        predicates to verify; then the permutation that takes a result's
        rows from this probe order to the build order."""
        bound = [start]
        remaining = [a for a in self.aliases if a != start]
        steps: list[tuple[str, tuple, list[tuple]]] = []
        while remaining:
            chosen = None
            for target in remaining:
                cross = []
                for pred in self.expr.joins_on(target):
                    other = pred.other(target)
                    if other in bound:
                        cross.append((bound.index(other),
                                      pred.side_for(other)[0],
                                      pred.side_for(target)[0]))
                if cross:
                    chosen = (target, cross[0], cross[1:])
                    break
            if chosen is None:
                raise DataError(
                    f"join graph of {self.expr!r} became disconnected "
                    "during ordering; this indicates a malformed expression"
                )
            steps.append(chosen)
            bound.append(chosen[0])
            remaining.remove(chosen[0])
        return steps, tuple(bound.index(a) for a in self._build_order)

    def _preferred(self) -> tuple[str | None, float]:
        """The alias whose next pull attains the corner bound, plus the
        bound itself; ``(None, -inf)`` once every input is exhausted."""
        best: str | None = None
        best_value = float("-inf")
        for alias in self.aliases:
            rows = self._cands[alias]
            position = self._pos[alias]
            if position >= len(rows):
                continue
            value = self._contribs[alias][rows[position].tid] \
                + self._others_top[alias]
            if value > best_value:
                best_value = value
                best = alias
        return best, best_value

    def _pull(self, alias: str) -> None:
        """Read one row, join it against everything already seen,
        buffer the canonicalized results, then index the row."""
        row = self._cands[alias][self._pos[alias]]
        self._pos[alias] += 1
        steps, to_build_order = self._plans[alias]
        partials: list[tuple[Row, ...]] = [(row,)]
        for target, (o_pos, o_attr, t_attr), verify in steps:
            index = self._indexes[target][t_attr]
            grown: list[tuple[Row, ...]] = []
            for partial in partials:
                matches = index.get(partial[o_pos].values[o_attr])
                if not matches:
                    continue
                for candidate in matches:
                    ok = True
                    for vo_pos, vo_attr, vt_attr in verify:
                        if candidate.values[vt_attr] \
                                != partial[vo_pos].values[vo_attr]:
                            ok = False
                            break
                    if ok:
                        grown.append(partial + (candidate,))
            partials = grown
            if not partials:
                break
        for attr in self._index_attrs[alias]:
            self._indexes[alias][attr].setdefault(
                row.values[attr], []).append(row)
        if not partials:
            return
        contribs_of = self._contribs
        build_order = self._build_order
        for partial in partials:
            rows = tuple(partial[i] for i in to_build_order)
            tup = STuple.of(self._shape, rows, tuple(
                contribs_of[a][r.tid] for a, r in zip(build_order, rows)))
            heapq.heappush(
                self._buffer,
                (-tup.intrinsic, tuple(sorted(tup.provenance)), tup),
            )

    def produce(self) -> STuple | None:
        """The next result in ranked order, or ``None`` when done."""
        if self._dead:
            return None
        buffer = self._buffer
        while True:
            preferred, corner = self._preferred()
            if buffer:
                if preferred is None \
                        or -buffer[0][0] > corner + _BOUND_MARGIN:
                    return heapq.heappop(buffer)[2]
            elif preferred is None:
                return None
            self._pull(preferred)


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
