"""Logical expressions and the physical plan graph.

Only the dependency-free expression layer is imported eagerly;
``PlanGraph`` is loaded lazily because it depends on the data and
operator layers, which themselves import ``repro.plan.expressions``.
"""

from typing import Any

from repro.plan.expressions import (
    SELECTION_OPS,
    SPJ,
    Atom,
    JoinPred,
    Selection,
    alias_isomorphism,
    make_chain,
    union_of,
)

__all__ = [
    "Atom",
    "JoinPred",
    "PlanGraph",
    "SELECTION_OPS",
    "SPJ",
    "Selection",
    "alias_isomorphism",
    "make_chain",
    "union_of",
]

_LAZY = {
    "PlanGraph": ("repro.plan.graph", "PlanGraph"),
}


def __getattr__(name: str) -> Any:
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(target[0])
    value = getattr(module, target[1])
    globals()[name] = value
    return value
