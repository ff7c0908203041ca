"""Logical select-project-join expressions.

Conjunctive queries (candidate networks) and every shared subexpression
the optimizer reasons about are instances of :class:`SPJ`: a set of
relation *atoms* (alias -> relation), equality *join predicates* along
schema-graph edges, and *selections* (the keyword-match conditions,
e.g. ``T.name = 'plasma membrane'``).

Three facilities matter for the paper's algorithms:

* **Hash-consing** (:class:`SPJ`): aliases are relation names in this
  pipeline, so the sub-expressions of different queries are equal by
  value; there is one object per distinct value, and whatever is
  derived from it -- induced fragments, canonical keys, cardinality
  estimates -- is derived once for every query that contains it.

* **Canonicalization** (:meth:`SPJ.canonical_key`): subexpression sharing
  across conjunctive queries requires recognising that two SPJ fragments
  are *the same expression* even when their atoms carry different
  aliases.  Colour refinement over canonical ranks names the atoms
  exactly for the tree-shaped join graphs of candidate networks, at the
  cost of one sort when no relation repeats; the key is one digest.

* **Connected subexpression enumeration**
  (:meth:`SPJ.connected_alias_subsets`): push-down candidate
  enumeration (the fragment table that stands in for Section 5.1.2's
  AND-OR memo) reads the connected alias subsets of each query's
  skeleton and induces the ones its filters keep.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property

from repro.common.errors import QueryError

#: Selection operators understood by the simulated sites.
SELECTION_OPS = ("eq", "contains", "ge", "le")


@dataclass(frozen=True, order=True)
class Atom:
    """One occurrence of a relation in an expression.

    ``alias`` is unique within the expression; ``relation`` names the
    schema relation.  The same relation may appear under several
    aliases (self-joins through synonym tables, etc.).

    The three part classes (this one, :class:`Selection` and
    :class:`JoinPred`) hash once, at construction, into a slot: every
    intern-table lookup hashes an expression's parts, and the slot holds
    exactly what the generated dataclass hash would return, so no set or
    dict of parts iterates in another order.
    """

    __slots__ = ("alias", "relation", "_hash")

    alias: str
    relation: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.alias, self.relation)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (Atom, (self.alias, self.relation))


@dataclass(frozen=True, order=True)
class Selection:
    """A predicate ``alias.attr <op> value`` applied at one atom."""

    __slots__ = ("alias", "attr", "op", "value", "_hash")

    alias: str
    attr: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in SELECTION_OPS:
            raise QueryError(
                f"unknown selection operator {self.op!r}; "
                f"expected one of {SELECTION_OPS}"
            )
        object.__setattr__(self, "_hash", hash(
            (self.alias, self.attr, self.op, self.value)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (Selection, (self.alias, self.attr, self.op, self.value))

    def matches(self, row_values: Mapping[str, object]) -> bool:
        """Evaluate this predicate against a raw row's values."""
        actual = row_values.get(self.attr)
        if actual is None:
            return False
        if self.op == "eq":
            return actual == self.value
        if self.op == "contains":
            return str(self.value) in str(actual)
        if self.op == "ge":
            return actual >= self.value  # type: ignore[operator]
        return actual <= self.value  # type: ignore[operator]


@dataclass(frozen=True, order=True)
class JoinPred:
    """An equality join ``left_alias.left_attr = right_alias.right_attr``.

    Construct via :meth:`normalized` so that the two sides are stored in
    a deterministic order and structurally-equal predicates compare
    equal.
    """

    __slots__ = ("left_alias", "left_attr", "right_alias", "right_attr",
                 "_hash")

    left_alias: str
    left_attr: str
    right_alias: str
    right_attr: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(
            (self.left_alias, self.left_attr, self.right_alias,
             self.right_attr)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (JoinPred, (self.left_alias, self.left_attr,
                           self.right_alias, self.right_attr))

    @classmethod
    def normalized(cls, alias_a: str, attr_a: str,
                   alias_b: str, attr_b: str) -> "JoinPred":
        if alias_a == alias_b:
            raise QueryError(
                f"join predicate must link two distinct atoms, got "
                f"{alias_a}.{attr_a} = {alias_b}.{attr_b}"
            )
        if (alias_a, attr_a) <= (alias_b, attr_b):
            return cls(alias_a, attr_a, alias_b, attr_b)
        return cls(alias_b, attr_b, alias_a, attr_a)

    def touches(self, alias: str) -> bool:
        return alias in (self.left_alias, self.right_alias)

    def side_for(self, alias: str) -> tuple[str, str]:
        """Return ``(my_attr, other_alias)`` oriented from ``alias``."""
        if alias == self.left_alias:
            return self.left_attr, self.right_alias
        if alias == self.right_alias:
            return self.right_attr, self.left_alias
        raise QueryError(f"{alias!r} is not part of join {self}")

    def other(self, alias: str) -> str:
        attr_unused, other_alias = self.side_for(alias)
        return other_alias


#: The process-wide intern table: canonical ``(atoms, joins,
#: selections)`` -> the one live :class:`SPJ` with that value.  Weak, so
#: an expression nobody references any more leaves the table with it.
_INTERNED: weakref.WeakValueDictionary[tuple, SPJ] = \
    weakref.WeakValueDictionary()
#: The table's own key -> weak reference dict, read directly on a hit
#: (``data`` is not in the typing stubs, hence ``getattr``).
_INTERNED_REFS: dict[tuple, weakref.ref] = getattr(_INTERNED, "data")
_INTERN_LOCK = threading.Lock()


def interned_count() -> int:
    """How many distinct expressions are alive in this process."""
    return len(_INTERNED)


class SPJ:
    """An immutable, hash-consed select-project-join expression.

    Instances are value objects: equality and hashing are structural
    (over atoms, joins, and selections, *not* canonicalized -- use
    :meth:`canonical_key` to compare modulo alias renaming).
    Constructing a value that already exists returns the existing
    object, so every per-instance memo below (``induced``, fragment
    enumeration, adjacency, canonical renaming and key, the order key),
    the cost model's cardinality estimate -- kept in this object's
    ``__dict__`` too, stamped with the statistics epoch it was computed
    under -- and every table keyed by expressions downstream is shared
    by all queries that contain the expression, not rebuilt per query.
    None of those memos refers back to the expression, so it still dies
    by reference counting with its last user -- and, once its query is
    released, the last user of a conjunctive query's expression is a
    plan-graph operator built on it, if any.  What the next query will
    derive again is kept deliberately, by its owner: the fragments that
    carry at most one keyword live in the plan repository's keyword
    table, and an expansion template stores expressions as values, not
    objects.

    Because the object that answers is whichever was built first, its
    behaviour must depend on its value alone: ``atoms``, ``joins`` and
    ``selections`` are sorted tuples, so iteration order (which feeds
    float arithmetic in the cost model and probe order in the m-join)
    is the same whatever order the caller supplied and whatever
    ``PYTHONHASHSEED`` is.
    """

    __slots__ = ("atoms", "joins", "selections", "_hash", "__dict__",
                 "__weakref__")

    atoms: tuple[Atom, ...]
    joins: tuple[JoinPred, ...]
    selections: tuple[Selection, ...]
    _hash: int

    def __new__(cls, atoms: Iterable[Atom],
                joins: Iterable[JoinPred] = (),
                selections: Iterable[Selection] = ()) -> "SPJ":
        atom_parts = tuple(sorted(atoms))
        if not atom_parts:
            raise QueryError("an SPJ expression needs at least one atom")
        aliases = [a.alias for a in atom_parts]
        alias_set = set(aliases)
        if len(alias_set) != len(aliases):
            raise QueryError(f"duplicate aliases in expression: {aliases}")
        join_parts = tuple(sorted(set(joins)))
        selection_parts = tuple(sorted(set(selections)))
        for pred in join_parts:
            for alias in (pred.left_alias, pred.right_alias):
                if alias not in alias_set:
                    raise QueryError(
                        f"join {pred} references unknown alias {alias!r}"
                    )
        for sel in selection_parts:
            if sel.alias not in alias_set:
                raise QueryError(
                    f"selection {sel} references unknown alias {sel.alias!r}"
                )
        return cls._intern(atom_parts, join_parts, selection_parts)

    @classmethod
    def _intern(cls, atoms: tuple[Atom, ...], joins: tuple[JoinPred, ...],
                selections: tuple[Selection, ...]) -> "SPJ":
        """The expression with exactly these parts, which the caller
        guarantees are already canonical: sorted, duplicate-free and
        referencing only aliases of ``atoms``."""
        key = (atoms, joins, selections)
        # The hit path reads the table's own dict: a live entry's weak
        # reference answers the object, a dead one ``None``, which the
        # locked path below settles.
        ref = _INTERNED_REFS.get(key)
        if ref is not None:
            found = ref()
            if found is not None:
                return found
        with _INTERN_LOCK:
            ref = _INTERNED_REFS.get(key)
            found = None if ref is None else ref()
            if found is None:
                found = object.__new__(cls)
                found.atoms = atoms
                found.joins = joins
                found.selections = selections
                # SPJ objects are dict keys throughout the optimizer;
                # hashing three tuples of dataclasses is expensive
                # enough to show up in profiles, so compute it once.
                found._hash = hash(key)
                _INTERNED[key] = found
        return found

    def __reduce__(self) -> tuple:
        # copy / deepcopy re-enter the intern table instead of cloning.
        return (SPJ, (self.atoms, self.joins, self.selections))

    # -- basic structure ------------------------------------------------

    @cached_property
    def aliases(self) -> tuple[str, ...]:
        return tuple(a.alias for a in self.atoms)

    @cached_property
    def alias_to_relation(self) -> dict[str, str]:
        return {a.alias: a.relation for a in self.atoms}

    @cached_property
    def relations(self) -> tuple[str, ...]:
        """Sorted multiset of relation names used by this expression."""
        return tuple(sorted(a.relation for a in self.atoms))

    @property
    def size(self) -> int:
        return len(self.atoms)

    def selections_on(self, alias: str) -> tuple[Selection, ...]:
        return tuple(s for s in self.selections if s.alias == alias)

    def joins_on(self, alias: str) -> tuple[JoinPred, ...]:
        return tuple(j for j in self.joins if j.touches(alias))

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        """alias -> sorted tuple of join-neighbour aliases."""
        neighbours: dict[str, set[str]] = {a: set() for a in self.aliases}
        for pred in self.joins:
            neighbours[pred.left_alias].add(pred.right_alias)
            neighbours[pred.right_alias].add(pred.left_alias)
        return {a: tuple(sorted(ns)) for a, ns in neighbours.items()}

    def is_connected(self) -> bool:
        """Whether the join graph links every atom (single atoms count)."""
        seen = {self.aliases[0]}
        frontier = [self.aliases[0]]
        while frontier:
            current = frontier.pop()
            for neighbour in self.adjacency[current]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return len(seen) == len(self.aliases)

    # -- derived expressions ---------------------------------------------

    def induced(self, aliases: Iterable[str]) -> "SPJ":
        """The sub-expression induced by a subset of aliases.

        Keeps every join and selection whose aliases all fall inside the
        subset.  Memoized per instance: the optimizer's plan search and
        factorization induce the same fragments of the same interned
        expressions thousands of times, and the result is a pure
        function of the alias subset.  The memo never holds ``self``
        (that would be a reference cycle through ``__dict__``, leaving
        every expression to the cyclic collector), and a miss filters
        the already sorted, already validated parts straight into the
        intern table.
        """
        keep = frozenset(aliases)
        cache = self.__dict__.get("_induced_cache")
        if cache is None:
            cache = self.__dict__["_induced_cache"] = {}
        cached = cache.get(keep)
        if cached is not None:
            return cached
        own = self._alias_set
        if keep == own:
            return self
        if not keep <= own:
            raise QueryError(
                f"cannot induce on unknown aliases {sorted(keep - own)}")
        if not keep:
            raise QueryError("an SPJ expression needs at least one atom")
        result = SPJ._intern(
            tuple([a for a in self.atoms if a.alias in keep]),
            tuple([j for j in self.joins
                   if j.left_alias in keep and j.right_alias in keep]),
            tuple([s for s in self.selections if s.alias in keep]),
        )
        cache[keep] = result
        return result

    def induced_fragments(self) -> Iterable["SPJ"]:
        """The fragments :meth:`induced` has derived and memoized so far."""
        return self.__dict__.get("_induced_cache", {}).values()

    @cached_property
    def _alias_set(self) -> frozenset[str]:
        return frozenset(self.aliases)

    def connected_subexpressions(self, min_size: int = 1,
                                 max_size: int | None = None
                                 ) -> Iterator["SPJ"]:
        """Yield every connected induced subexpression, smallest first.

        Enumeration grows connected alias sets breadth-first and
        deduplicates by frozenset, so each subset is yielded exactly
        once.  ``max_size`` defaults to the full expression size.  The
        enumerated alias subsets are memoized per (min, max) window --
        candidate enumeration re-enumerates the same interned query
        expressions every batch -- and the fragments themselves live in
        :meth:`induced`'s memo (subsets, not fragments, because the
        full-size fragment is ``self``).
        """
        if max_size is None:
            max_size = self.size
        for subset in self.connected_alias_subsets(min_size, max_size):
            yield self.induced(subset)

    def connected_alias_subsets(self, min_size: int, max_size: int
                                ) -> tuple[frozenset[str], ...]:
        """The alias subsets :meth:`connected_subexpressions` induces,
        smallest first, memoized per (min, max) window."""
        memo = self.__dict__.setdefault("_fragment_cache", {})
        subsets = memo.get((min_size, max_size))
        if subsets is None:
            subsets = tuple(self._enumerate_connected(min_size, max_size))
            memo[(min_size, max_size)] = subsets
        return subsets

    def _enumerate_connected(self, min_size: int, max_size: int
                             ) -> Iterator[frozenset[str]]:
        seen: set[frozenset[str]] = set()
        frontier: list[frozenset[str]] = []
        for alias in self.aliases:
            singleton = frozenset((alias,))
            seen.add(singleton)
            frontier.append(singleton)
        by_size: dict[int, list[frozenset[str]]] = {1: list(frontier)}
        size = 1
        while size < max_size:
            next_level: list[frozenset[str]] = []
            for subset in by_size.get(size, ()):
                reachable: set[str] = set()
                for alias in subset:
                    reachable.update(self.adjacency[alias])
                for alias in reachable - subset:
                    grown = subset | {alias}
                    if grown not in seen:
                        seen.add(grown)
                        next_level.append(grown)
            if not next_level:
                break
            by_size[size + 1] = next_level
            size += 1
        for size in range(min_size, max_size + 1):
            yield from sorted(by_size.get(size, ()), key=sorted)

    def renamed(self, mapping: Mapping[str, str]) -> "SPJ":
        """The same expression with aliases renamed through ``mapping``.

        Aliases absent from the mapping keep their names; the mapping
        must not collapse two aliases into one.  Renaming never changes
        :attr:`canonical_key`.
        """
        new_names = [mapping.get(a, a) for a in self.aliases]
        if len(set(new_names)) != len(new_names):
            raise QueryError(f"renaming {dict(mapping)} collapses aliases")
        atoms = [Atom(mapping.get(a.alias, a.alias), a.relation)
                 for a in self.atoms]
        joins = [
            JoinPred.normalized(
                mapping.get(p.left_alias, p.left_alias), p.left_attr,
                mapping.get(p.right_alias, p.right_alias), p.right_attr)
            for p in self.joins
        ]
        selections = [
            Selection(mapping.get(s.alias, s.alias), s.attr, s.op, s.value)
            for s in self.selections
        ]
        return SPJ(atoms, joins, selections)

    # -- canonicalization --------------------------------------------------

    @cached_property
    def canonical_renaming(self) -> dict[str, str]:
        """Map each alias to its canonical name (``q0``, ``q1``, ...).

        Colour refinement over canonical ranks: an atom's first colour
        ranks (relation, its selections); a round, run only while
        colours tie, re-ranks (colour, the sorted (own attribute,
        neighbour's attribute, neighbour's colour) of its joins).  When
        a round splits no class, the alias-first atom of the lowest
        tied class gets a colour of its own: in a forest, atoms that
        still tie are swapped by an automorphism, so the pick does not
        change the key.  Equivalent expressions get renamings that
        compose into an isomorphism (see :func:`alias_isomorphism`).
        """
        by_relation = sorted((a.relation, a.alias) for a in self.atoms)
        if len({relation for relation, _ in by_relation}) == self.size:
            # No relation repeats (every candidate network): the first
            # colour's leading field already tells every atom apart.
            return {alias: f"q{i}"
                    for i, (_, alias) in enumerate(by_relation)}
        colour = _ranks({
            atom.alias: (atom.relation, tuple(
                (s.attr, s.op, repr(s.value))
                for s in self.selections_on(atom.alias)))
            for atom in self.atoms})
        classes = len(set(colour.values()))
        while classes < self.size:
            edges: dict[str, list[tuple]] = {a: [] for a in self.aliases}
            for p in self.joins:
                edges[p.left_alias].append(
                    (p.left_attr, p.right_attr, colour[p.right_alias]))
                edges[p.right_alias].append(
                    (p.right_attr, p.left_attr, colour[p.left_alias]))
            refined = _ranks({alias: (colour[alias], tuple(sorted(mine)))
                              for alias, mine in edges.items()})
            split = len(set(refined.values()))
            if split == classes:
                counts = Counter(refined.values())
                tied = min(c for c, n in counts.items() if n > 1)
                chosen = next(a for a in self.aliases if refined[a] == tied)
                refined = _ranks({a: (c, a != chosen)
                                  for a, c in refined.items()})
                split += 1
            colour, classes = refined, split
        order = sorted(self.aliases, key=colour.__getitem__)
        return {alias: f"q{i}" for i, alias in enumerate(order)}

    @cached_property
    def canonical_key(self) -> str:
        """A string identifying this expression modulo alias renaming."""
        rename = self.canonical_renaming
        atoms = tuple(sorted(
            (rename[a.alias], a.relation) for a in self.atoms
        ))
        joins = tuple(sorted(
            tuple(sorted(
                ((rename[p.left_alias], p.left_attr),
                 (rename[p.right_alias], p.right_attr))
            ))
            for p in self.joins
        ))
        selections = tuple(sorted(
            (rename[s.alias], s.attr, s.op, repr(s.value))
            for s in self.selections
        ))
        return _digest((atoms, joins, selections))

    # -- value semantics --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, SPJ):
            return NotImplemented
        # Identity is the fast path, structure stays the definition:
        # the intern table is an economy, not part of the value, so a
        # second copy of a value that ever got past it would cost a
        # duplicate, never a wrong answer.
        return (self._hash == other._hash and self.atoms == other.atoms
                and self.joins == other.joins
                and self.selections == other.selections)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = [f"{a.alias}:{a.relation}" for a in self.atoms]
        if self.selections:
            parts.append(
                "sel=" + ",".join(
                    f"{s.alias}.{s.attr}{s.op}{s.value!r}"
                    for s in self.selections)
            )
        return f"SPJ({' '.join(parts)})"

    @cached_property
    def order_key(self) -> str:
        """A total order over expressions that depends on the value
        alone: ``repr`` (atoms and selections) extended by the join
        predicates ``repr`` leaves out.  Tie-breaks that sorted by
        ``repr`` were blind to two fragments joining the same atoms
        on different attributes and fell back to insertion order."""
        joins = ",".join(
            f"{p.left_alias}.{p.left_attr}={p.right_alias}.{p.right_attr}"
            for p in self.joins)
        return f"{self!r} on {joins}"

    def describe(self) -> str:
        """A human-readable rendering, e.g. ``s(T) |X| G2G |X| GI``."""
        names = []
        for atom in self.atoms:
            if self.selections_on(atom.alias):
                names.append(f"s({atom.relation})")
            else:
                names.append(atom.relation)
        return " |X| ".join(names)


def _digest(payload: object) -> str:
    """The canonical-hash scheme of expression keys: blake2s over
    ``repr``."""
    return hashlib.blake2s(repr(payload).encode(), digest_size=10).hexdigest()


def _ranks(values: Mapping[str, tuple]) -> dict[str, int]:
    """Each key's value replaced by its rank among the distinct values."""
    rank = {value: i for i, value in enumerate(sorted(set(values.values())))}
    return {key: rank[value] for key, value in values.items()}


def make_chain(relations: list[tuple[str, str, str, str]],
               selections: Iterable[Selection] = ()) -> SPJ:
    """Convenience: build a chain query R0 -a0=b1- R1 -a1=b2- R2 ...

    ``relations`` lists ``(relation, alias, join_attr_to_prev,
    prev_join_attr)`` quadruples; the first entry's join attributes are
    ignored.  Used heavily by tests and examples.
    """
    atoms = []
    joins = []
    prev_alias: str | None = None
    for relation, alias, attr_to_prev, prev_attr in relations:
        atoms.append(Atom(alias, relation))
        if prev_alias is not None:
            joins.append(JoinPred.normalized(
                prev_alias, prev_attr, alias, attr_to_prev))
        prev_alias = alias
    return SPJ(atoms, joins, selections)


def union_of(parts: Iterable[SPJ], extra_joins: Iterable[JoinPred] = ()) -> SPJ:
    """Combine disjoint-alias fragments plus bridging joins into one SPJ."""
    atoms: list[Atom] = []
    joins: list[JoinPred] = []
    selections: list[Selection] = []
    for part in parts:
        atoms.extend(part.atoms)
        joins.extend(part.joins)
        selections.extend(part.selections)
    joins.extend(extra_joins)
    return SPJ(atoms, joins, selections)


def alias_isomorphism(source: SPJ, target: SPJ) -> dict[str, str]:
    """An alias mapping carrying ``source`` onto the equivalent ``target``.

    Both expressions must have the same canonical key; the mapping
    composes ``source``'s canonical renaming with the inverse of
    ``target``'s.  Used when a shared input expression's output tuples
    must be re-labelled with a consuming query's own aliases.
    """
    if source.canonical_key != target.canonical_key:
        raise QueryError(
            f"no isomorphism: {source!r} and {target!r} are not equivalent"
        )
    inverse_target = {
        canon: alias for alias, canon in target.canonical_renaming.items()
    }
    return {
        alias: inverse_target[canon]
        for alias, canon in source.canonical_renaming.items()
    }

