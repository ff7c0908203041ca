"""Query intermediate representation.

The pipeline of Section 3: a *keyword query* ``KQ_j`` is converted into
a *user query* ``UQ_j`` -- the union of a set of *conjunctive queries*
``CQ_i`` (candidate networks), each paired with a monotone score
function ``C_i``.  The query batcher receives these as triples
``(UQ_j, CQ_i, C_i)`` in nonincreasing order of maximum attainable
score ``U(C_i)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.common.errors import QueryError
from repro.data.inverted import KeywordMatch
from repro.plan.expressions import SPJ
from repro.scoring.base import MonotoneScore


@dataclass(frozen=True)
class ConjunctiveQuery:
    """One candidate network with its score function.

    ``expr`` is the select-project-join expression; ``score`` its
    monotone score function (aliases must agree); ``matches`` records
    which keyword matched which atom, for provenance and debugging.
    """

    cq_id: str
    uq_id: str
    expr: SPJ
    score: MonotoneScore
    matches: tuple[KeywordMatch, ...] = ()

    def __post_init__(self) -> None:
        expr_aliases = set(self.expr.aliases)
        score_aliases = set(self.score.weights)
        if expr_aliases != score_aliases:
            raise QueryError(
                f"{self.cq_id}: score function aliases {sorted(score_aliases)} "
                f"do not match expression aliases {sorted(expr_aliases)}"
            )

    @property
    def upper_bound(self) -> float:
        """``U(C_i)``: the best score any result of this CQ can attain."""
        return self.score.max_score()

    @property
    def size(self) -> int:
        return self.expr.size

    @property
    def relations(self) -> tuple[str, ...]:
        return self.expr.relations

    def __repr__(self) -> str:
        return (f"CQ({self.cq_id}, {self.expr.describe()}, "
                f"U={self.upper_bound:.4f})")


@dataclass
class UserQuery:
    """A keyword query's full expansion: the union of its CQs.

    ``cqs`` is kept sorted by nonincreasing upper bound -- the order in
    which the QS manager activates them as the top-k frontier drops.
    ``arrival`` is the virtual time the user posed the query.
    """

    uq_id: str
    keywords: tuple[str, ...]
    cqs: list[ConjunctiveQuery] = field(default_factory=list)
    k: int = 50
    arrival: float = 0.0
    user: str = "anonymous"

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise QueryError(f"{self.uq_id}: k must be positive, got {self.k}")
        self.cqs.sort(key=lambda cq: -cq.upper_bound)
        for cq in self.cqs:
            if cq.uq_id != self.uq_id:
                raise QueryError(
                    f"CQ {cq.cq_id} belongs to {cq.uq_id}, not {self.uq_id}"
                )

    @cached_property
    def relation_set(self) -> frozenset[str]:
        """All relations any of this UQ's CQs touch (used by clustering)."""
        out: set[str] = set()
        for cq in self.cqs:
            out.update(cq.relations)
        return frozenset(out)

    def triples(self) -> list[tuple[str, ConjunctiveQuery, MonotoneScore]]:
        """The batcher's input format: ``(UQ_j, CQ_i, C_i)`` triples in
        nonincreasing order of ``U(C_i)`` (Section 3)."""
        return [(self.uq_id, cq, cq.score) for cq in self.cqs]

    def __repr__(self) -> str:
        return (f"UQ({self.uq_id}, keywords={list(self.keywords)}, "
                f"{len(self.cqs)} CQs)")


@dataclass(frozen=True)
class KeywordQuery:
    """The raw user input: keywords, top-k, user identity, arrival time."""

    kq_id: str
    keywords: tuple[str, ...]
    k: int = 50
    user: str = "anonymous"
    arrival: float = 0.0

    def __post_init__(self) -> None:
        if not self.keywords:
            raise QueryError(f"{self.kq_id}: a keyword query needs keywords")


@dataclass(frozen=True)
class RankedAnswer:
    """One answer returned to the user: the tuple, its score, its CQ."""

    uq_id: str
    cq_id: str
    score: float
    provenance: frozenset[tuple[str, str, int]]

    def __repr__(self) -> str:
        return f"Answer({self.cq_id}, score={self.score:.4f})"
