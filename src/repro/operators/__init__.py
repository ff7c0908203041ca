"""Execution operators: access modules, the ranked join, m-joins,
rank-merge."""

from repro.operators.access import AccessModule
from repro.operators.nodes import InputUnit, MJoinNode, RecoveryUnit, Supplier
from repro.operators.ranked_join import ProbeTarget, RankedJoin
from repro.operators.rankmerge import CQStreamEntry, RankMerge

__all__ = [
    "AccessModule",
    "CQStreamEntry",
    "InputUnit",
    "MJoinNode",
    "ProbeTarget",
    "RankMerge",
    "RankedJoin",
    "RecoveryUnit",
    "Supplier",
]
