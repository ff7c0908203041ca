"""Execution operators: access modules, m-joins, rank-merge."""

from repro.operators.access import AccessModule
from repro.operators.nodes import (
    InputUnit,
    MJoinNode,
    ProbeTarget,
    RecoveryUnit,
    Supplier,
)
from repro.operators.rankmerge import CQStreamEntry, RankMerge

__all__ = [
    "AccessModule",
    "CQStreamEntry",
    "InputUnit",
    "MJoinNode",
    "ProbeTarget",
    "RankMerge",
    "RecoveryUnit",
    "Supplier",
]
