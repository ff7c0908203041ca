"""Tuple representations.

* :class:`Row` -- a base tuple as stored at a site: relation name, a
  site-local tuple id, and the attribute values.
* :class:`STuple` -- a *scored* tuple flowing through the query plan
  graph: base rows bound to aliases, with each atom's intrinsic score
  contribution.  Joins concatenate STuples; the rank-merge maps an
  STuple's contributions through a user query's score function.

Layout.  An STuple is four slots: its :class:`Shape`, the rows and the
contributions as tuples in the shape's alias order, and the intrinsic
score.  A shape is an ordered alias tuple interned in a weak table (as
:class:`~repro.plan.expressions.SPJ` is): alias -> position, the alias
set, and memos for ``shape + shape`` (merge) and ``shape + alias``
(extend_one), so a join's overlap check is a memo hit.

Bit identity.  The order is the order the tuple was built in -- a merge
puts its left operand's aliases first, an extension appends -- and
``intrinsic`` is ``sum()`` over the contributions in that order: the
insertion order of the ``alias -> contribution`` dict this layout
replaced, so every score, threshold comparison and tie is unchanged.

Provenance -- the set of (alias, relation, tid) triples -- is computed
on demand (recovery de-duplication in the rank-merge, Section 6.2;
answer payloads; the site producer's tie-break).  STuples hash and
compare by it; tuples of one shape compare rows position by position.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from repro.common.errors import DataError


@dataclass(frozen=True)
class Row:
    """One base tuple stored at a site."""

    relation: str
    tid: int
    values: Mapping[str, Any]

    def __getitem__(self, attr: str) -> Any:
        try:
            return self.values[attr]
        except KeyError:
            raise DataError(
                f"row {self.relation}#{self.tid} has no attribute {attr!r}"
            ) from None

    def get(self, attr: str, default: Any = None) -> Any:
        return self.values.get(attr, default)

    def __hash__(self) -> int:
        return hash((self.relation, self.tid))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return self.relation == other.relation and self.tid == other.tid

    def __repr__(self) -> str:
        return f"Row({self.relation}#{self.tid})"


#: Ordered alias tuple -> the live :class:`Shape` with that order.
_SHAPES: weakref.WeakValueDictionary[tuple[str, ...], Shape] = \
    weakref.WeakValueDictionary()


def shape_count() -> int:
    """How many distinct tuple shapes are alive in this process."""
    return len(_SHAPES)


class Shape:
    """An interned, ordered alias tuple: the layout of an STuple.

    The memos are keyed by alias tuples and alias names and hold only
    strictly larger shapes, so no shape keeps a smaller one alive.
    """

    __slots__ = ("aliases", "index", "alias_set", "_merged", "_extended",
                 "__weakref__")
    aliases: tuple[str, ...]
    index: dict[str, int]
    alias_set: frozenset[str]
    _merged: dict[tuple[str, ...], Shape]
    _extended: dict[str, Shape]

    @staticmethod
    def of(aliases: tuple[str, ...]) -> Shape:
        found = _SHAPES.get(aliases)
        if found is None:
            alias_set = frozenset(aliases)
            if len(alias_set) != len(aliases):
                overlap = sorted({a for a in aliases if aliases.count(a) > 1})
                raise DataError(
                    f"cannot merge STuples sharing aliases {overlap}")
            found = object.__new__(Shape)
            found.aliases = aliases
            found.index = {alias: i for i, alias in enumerate(aliases)}
            found.alias_set = alias_set
            found._merged, found._extended = {}, {}
            found = _SHAPES.setdefault(aliases, found)
        return found

    def merge(self, other: Shape) -> Shape:
        found = self._merged.get(other.aliases)
        if found is None:
            found = self._merged[other.aliases] = Shape.of(
                self.aliases + other.aliases)
        return found

    def extend(self, alias: str) -> Shape:
        found = self._extended.get(alias)
        if found is None:
            found = self._extended[alias] = Shape.of(self.aliases + (alias,))
        return found

    def __repr__(self) -> str:
        return f"Shape{self.aliases}"


class STuple:
    """A scored composite tuple: base rows bound to a shape's aliases.

    ``contribs[i]`` is the intrinsic score contribution of the atom
    bound at position ``i`` (the sum of its score-attribute values;
    zero for score-less relations).  The *intrinsic* score -- the sum
    of all contributions -- is the sort key every source and operator
    uses, as all supported user score functions are monotone transforms
    of it (see :mod:`repro.scoring`).
    """

    __slots__ = ("shape", "rows", "contribs", "intrinsic")

    def __init__(self, bindings: Mapping[str, Row],
                 contribs: Mapping[str, float]) -> None:
        if not bindings:
            raise DataError("an STuple needs at least one binding")
        if set(bindings) != set(contribs):
            raise DataError(
                f"bindings {sorted(bindings)} and contributions "
                f"{sorted(contribs)} must cover the same aliases"
            )
        self.shape = Shape.of(tuple(contribs))
        self.rows = tuple(bindings[a] for a in self.shape.aliases)
        self.contribs = tuple(contribs[a] for a in self.shape.aliases)
        self.intrinsic = sum(self.contribs)

    @classmethod
    def of(cls, shape: Shape, rows: tuple[Row, ...],
           contribs: tuple[float, ...]) -> STuple:
        """Trusted constructor for the join hot paths: ``rows`` and
        ``contribs`` are already in ``shape``'s order."""
        tup = object.__new__(cls)
        tup.shape = shape
        tup.rows = rows
        tup.contribs = contribs
        tup.intrinsic = sum(contribs)
        return tup

    @classmethod
    def single(cls, alias: str, row: Row, contrib: float) -> STuple:
        return cls.of(Shape.of((alias,)), (row,), (contrib,))

    # -- access ----------------------------------------------------------------

    @property
    def aliases(self) -> frozenset[str]:
        return self.shape.alias_set

    @property
    def provenance(self) -> frozenset[tuple[str, str, int]]:
        return frozenset((alias, row.relation, row.tid)
                         for alias, row in zip(self.shape.aliases, self.rows))

    def row(self, alias: str) -> Row:
        try:
            return self.rows[self.shape.index[alias]]
        except KeyError:
            raise DataError(f"STuple has no binding for alias {alias!r}") from None

    def value(self, alias: str, attr: str) -> Any:
        return self.row(alias)[attr]

    # -- composition ---------------------------------------------------------

    def merge(self, other: STuple) -> STuple:
        """Concatenate two tuples with disjoint aliases."""
        return STuple.of(self.shape.merge(other.shape),
                         self.rows + other.rows,
                         self.contribs + other.contribs)

    def extend_one(self, alias: str, row: Row, contrib: float) -> STuple:
        """``merge`` with a one-atom tuple, without building it."""
        return STuple.of(self.shape.extend(alias), self.rows + (row,),
                         self.contribs + (contrib,))

    # -- value semantics ------------------------------------------------------

    def __hash__(self) -> int:
        return hash(self.provenance)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, STuple):
            return NotImplemented
        if self.shape is other.shape:
            return self.rows == other.rows
        return (self.shape.alias_set == other.shape.alias_set
                and self.provenance == other.provenance)

    def __repr__(self) -> str:
        keys = ", ".join(
            f"{alias}={row.relation}#{row.tid}"
            for alias, row in sorted(zip(self.shape.aliases, self.rows))
        )
        return f"STuple({keys}; intrinsic={self.intrinsic:.4f})"
