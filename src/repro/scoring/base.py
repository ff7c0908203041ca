"""Monotone score functions and their upper bounds.

Section 2 of the paper assumes each conjunctive query ``CQ_i`` is paired
with a *monotonic* score function ``C_i`` mapping result tuples to real
scores, together with a function ``U(C_i)`` giving an upper bound on the
score of any tuple the query can still return.  All three models the
paper surveys (DISCOVER, the Q System, BANKS/BLINKS) fit the shape

    ``C(t) = transform( static + sum_a  w_a * contrib_a(t) )``

where ``contrib_a`` is atom ``a``'s intrinsic score contribution (the
sum of its score-attribute values), every weight ``w_a`` is
non-negative, and ``transform`` is a nondecreasing function (identity,
or ``x -> 2**x`` for the Q System's ``1/2^cost`` form).  That is what
:class:`MonotoneScore` implements.

Because the shape is additive, a score function also supports the
*partial* bounds that drive the whole execution model: given the exact
contributions of the atoms bound so far and an upper bound on each
unbound atom's contribution, :meth:`MonotoneScore.bound` returns a tight
upper bound on the score of any extension -- this is the quantity
m-joins gate their output queues on and rank-merge operators use as
per-stream thresholds.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping

from repro.common.errors import ScoringError
from repro.data.rows import STuple

#: Registry of allowed monotone transforms.
_TRANSFORMS: dict[str, Callable[[float], float]] = {
    "identity": lambda x: x,
    "exp2": lambda x: math.pow(2.0, x) if x < 64 else math.inf,
}


class MonotoneScore:
    """A monotone score function over an SPJ expression's atoms.

    Parameters
    ----------
    weights:
        Non-negative weight per alias.  Aliases with weight zero do not
        influence the score (typical for link tables in the DISCOVER
        model).
    static:
        The static component: derived from the query's size, its edge
        costs, and the relations' authoritativeness (Section 2.1).
    transform:
        ``"identity"`` or ``"exp2"`` (the Q System's ``2**x`` applied to
        a negative cost, yielding ``1/2^cost``).
    caps:
        Upper bound on each alias's contribution; usually the maximum
        score-attribute total observed in the relation's statistics.
        Required for every alias in ``weights``.
    """

    __slots__ = ("weights", "static", "transform_name", "caps", "_transform")

    def __init__(self, weights: Mapping[str, float], static: float,
                 transform: str, caps: Mapping[str, float]) -> None:
        if transform not in _TRANSFORMS:
            raise ScoringError(
                f"unknown transform {transform!r}; "
                f"expected one of {sorted(_TRANSFORMS)}"
            )
        for alias, weight in weights.items():
            if weight < 0:
                raise ScoringError(
                    f"weight for alias {alias!r} is negative ({weight}); "
                    "monotonicity requires non-negative weights"
                )
        missing = set(weights) - set(caps)
        if missing:
            raise ScoringError(
                f"caps missing for aliases {sorted(missing)}"
            )
        self.weights: dict[str, float] = dict(weights)
        self.static = float(static)
        self.transform_name = transform
        self.caps: dict[str, float] = {a: float(caps[a]) for a in weights}
        self._transform = _TRANSFORMS[transform]

    # -- full scores -------------------------------------------------------

    @property
    def aliases(self) -> frozenset[str]:
        return frozenset(self.weights)

    def score(self, tup: STuple) -> float:
        """The final score of a fully bound result tuple."""
        position = tup.shape.index
        contribs = tup.contribs
        try:
            total = sum(weight * contribs[position[alias]]
                        for alias, weight in self.weights.items())
        except KeyError:
            missing = self.aliases - tup.aliases
            raise ScoringError(
                f"contributions missing for aliases {sorted(missing)}"
            ) from None
        return self._transform(self.static + total)

    # -- bounds ------------------------------------------------------------------

    def bound(self, known: Mapping[str, float],
              unbound_caps: Mapping[str, float] | None = None) -> float:
        """Upper bound over all extensions of a partial binding.

        ``known`` maps bound aliases to their exact contributions;
        every other alias contributes its cap (overridable per-call via
        ``unbound_caps``, which the rank-merge uses to push a stream's
        *current* high-water mark instead of the static maximum).
        """
        total = self.static
        for alias, weight in self.weights.items():
            if alias in known:
                value = known[alias]
            elif unbound_caps is not None and alias in unbound_caps:
                value = unbound_caps[alias]
            else:
                value = self.caps[alias]
            if value == -math.inf:
                return -math.inf
            total += weight * value
        return self._transform(total)

    def max_score(self) -> float:
        """``U(C)``: the largest score any result of this query can have."""
        return self.bound({})

    def bound_from_intrinsic(self, intrinsic_bound: float) -> float:
        """Upper bound on the score of any tuple whose *intrinsic* total
        (sum of contributions) is at most ``intrinsic_bound``.

        The plan graph's streams are ordered and bounded by intrinsic
        score; this converts a stream's intrinsic bound into a bound
        under this (possibly non-uniformly weighted) score function:
        ``sum w_a c_a <= min(w_max * sum c_a, sum w_a cap_a)``.  For the
        uniform-weight models the bound is exact.
        """
        if intrinsic_bound == -math.inf:
            return -math.inf
        cap_total = sum(self.weights[a] * self.caps[a] for a in self.weights)
        w_max = max(self.weights.values(), default=0.0)
        return self._transform(
            self.static + min(w_max * intrinsic_bound, cap_total)
        )

    # -- derived functions --------------------------------------------------------

    def restricted(self, aliases: frozenset[str] | set[str]) -> "MonotoneScore":
        """The score function induced on a subexpression's aliases.

        Keeps those aliases' weights and caps, drops the static term and
        the transform (subexpression ordering only needs the *linear*
        part; the identity transform preserves order and composition).
        """
        unknown = set(aliases) - set(self.weights)
        if unknown:
            raise ScoringError(
                f"cannot restrict to unknown aliases {sorted(unknown)}"
            )
        kept = {a: self.weights[a] for a in aliases}
        caps = {a: self.caps[a] for a in aliases}
        return MonotoneScore(kept, 0.0, "identity", caps)

    def renamed(self, mapping: Mapping[str, str]) -> "MonotoneScore":
        """The same function with aliases renamed through ``mapping``."""
        weights = {mapping.get(a, a): w for a, w in self.weights.items()}
        caps = {mapping.get(a, a): c for a, c in self.caps.items()}
        if len(weights) != len(self.weights):
            raise ScoringError(f"renaming {dict(mapping)} collapses aliases")
        return MonotoneScore(weights, self.static, self.transform_name, caps)

    def __repr__(self) -> str:
        terms = " + ".join(
            f"{w:.3g}*{a}" for a, w in sorted(self.weights.items())
        )
        return (f"MonotoneScore({self.transform_name}"
                f"({self.static:.3g} + {terms}))")


def intrinsic_order_is_score_order(score: MonotoneScore) -> bool:
    """Whether sorting by intrinsic contribution sorts by final score.

    True when all weights are equal -- the common case, and the property
    ("even subqueries that use different scoring functions will read
    from the source relations in the same order", Section 1) that lets
    one shared stream serve users with different score functions.
    """
    values = set(score.weights.values())
    return len(values) <= 1
