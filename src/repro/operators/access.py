"""Access modules: shared, insertion-ordered join state.

Every streaming input (and every m-join's released output) owns one
:class:`AccessModule` -- the "state module" of the STeM eddy [24] the
paper builds on.  A module is:

* **indexed**: one hash index per (alias, attribute) pair any consumer
  may probe on, so an m-join can look up join partners in O(1);
* **insertion-ordered**: the paper threads a linked list through the
  hash table so state recovery can replay tuples "in the order they
  were received from the input stream" (Section 6.2) -- which is
  nonincreasing score order, exactly what recovery needs.

Recovery is a ranked stream: a new m-join's recovery join reads the
prefix each supplier's module held at graft time, in nonincreasing
order (:meth:`ranked_replay`), through the ranked-join core
(:class:`~repro.operators.ranked_join.RankedJoin`): the smallest prefix
lazily, the others indexed whole, and only as deep as the reader pulls.
Modules are append-only, so a prefix is just the module's length at
graft: no module keeps epochs, and tuples stored after the graft never
enter the recovery join.

Modules are *shared*: several m-joins (from different conjunctive
queries) probe the same module, which is how subexpression sharing
avoids duplicated state.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.common.errors import StateError
from repro.data.rows import STuple


class AccessModule:
    """Insertion-ordered, multi-indexed tuple store."""

    def __init__(self, name: str, index_keys: tuple[tuple[str, str], ...] = ()
                 ) -> None:
        self.name = name
        #: (alias, attr) -> value -> tuples in arrival order
        self._indexes: dict[tuple[str, str], dict[Any, list[STuple]]] = {
            key: {} for key in index_keys
        }
        #: Every stored tuple in arrival order (the "linked list").
        self._arrival_log: list[STuple] = []
        #: Whether the log is in nonincreasing intrinsic order (stream
        #: inputs always are; an m-join's log stops being once a seed
        #: is appended after its releases).
        self._ranked = True

    # -- schema of the module -------------------------------------------------

    def ensure_index(self, alias: str, attr: str) -> None:
        """Add a hash index retroactively (new consumers may probe on
        attributes earlier consumers did not)."""
        key = (alias, attr)
        if key in self._indexes:
            return
        index: dict[Any, list[STuple]] = {}
        for tup in self._arrival_log:
            index.setdefault(tup.value(alias, attr), []).append(tup)
        self._indexes[key] = index

    # -- writes -----------------------------------------------------------------

    def insert(self, tup: STuple) -> None:
        """Store a tuple; updates every index."""
        log = self._arrival_log
        if self._ranked and log and tup.intrinsic > log[-1].intrinsic:
            self._ranked = False
        log.append(tup)
        for (alias, attr), index in self._indexes.items():
            index.setdefault(tup.value(alias, attr), []).append(tup)

    # -- reads --------------------------------------------------------------------

    def probe(self, alias: str, attr: str, value: Any) -> list[STuple]:
        """Tuples whose ``alias.attr == value``, in arrival order."""
        key = (alias, attr)
        if key not in self._indexes:
            raise StateError(
                f"module {self.name!r} has no index on {alias}.{attr}; "
                f"available: {sorted(self._indexes)}"
            )
        return list(self._indexes[key].get(value, ()))

    def replay(self) -> list[STuple]:
        """Every tuple in arrival order: the linked-list walk of
        Section 6.2."""
        return list(self._arrival_log)

    def ranked_replay(self) -> Sequence[STuple]:
        """The stored tuples in nonincreasing intrinsic order: the log
        itself while it is ranked, else a sorted copy.  Inserts only
        append, so the first :attr:`size` entries of either never
        change -- a reader that remembers the size at the time of the
        call reads exactly what was stored then."""
        if self._ranked:
            return self._arrival_log
        return sorted(self._arrival_log, key=lambda t: -t.intrinsic)

    # -- accounting -----------------------------------------------------------------

    @property
    def size(self) -> int:
        """Stored tuple count (the eviction unit of Section 6.3)."""
        return len(self._arrival_log)

    def clear(self) -> int:
        """Drop all state; returns tuples freed (for eviction metrics)."""
        freed = self.size
        self._arrival_log.clear()
        self._ranked = True
        for index in self._indexes.values():
            index.clear()
        return freed

    def __repr__(self) -> str:
        return f"AccessModule({self.name!r}, size={self.size})"
