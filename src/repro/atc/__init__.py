"""The ATC execution layer: batcher, controller, QS manager, engine."""

from repro.atc.batcher import Batch, QueryBatcher
from repro.atc.controller import ATCController
from repro.atc.engine import EngineReport, QSystemEngine
from repro.atc.state_manager import GraphReuseOracle, QueryStateManager, Terminal

__all__ = [
    "ATCController",
    "Batch",
    "EngineReport",
    "GraphReuseOracle",
    "QSystemEngine",
    "QueryBatcher",
    "QueryStateManager",
    "Terminal",
]
