"""Shared infrastructure: errors, seeded randomness, virtual time, config."""

from repro.common.clock import StopWatch, VirtualClock
from repro.common.config import DelayModel, ExecutionConfig, SharingMode
from repro.common.errors import (
    DataError,
    ExecutionError,
    OptimizationError,
    QueryError,
    ReproError,
    SchemaError,
    ScoringError,
    StateError,
)
from repro.common.rng import ZipfSampler, make_rng, poisson_delay, zipf_scores

__all__ = [
    "DataError",
    "DelayModel",
    "ExecutionConfig",
    "ExecutionError",
    "OptimizationError",
    "QueryError",
    "ReproError",
    "SchemaError",
    "ScoringError",
    "SharingMode",
    "StateError",
    "StopWatch",
    "VirtualClock",
    "ZipfSampler",
    "make_rng",
    "poisson_delay",
    "zipf_scores",
]
