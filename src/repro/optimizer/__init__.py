"""Multi-query optimization: candidates, BestPlan, factorization,
clustering, cost model, and the plan repository (the optimizer entry
point plus keyword-expansion interning)."""

from repro.optimizer.bestplan import BestPlanResult, BestPlanSearch
from repro.optimizer.candidates import (
    InputCandidate,
    driving_stream_aliases,
    enumerate_candidates,
    streamable_aliases,
)
from repro.optimizer.clustering import (
    IncrementalClusterer,
    cluster_user_queries,
    jaccard,
)
from repro.optimizer.cost import CostModel, ReuseOracle
from repro.optimizer.factorize import (
    ComponentSpec,
    FactorizedPlan,
    SourceSpec,
    component_node_id,
    factorize,
    source_node_id,
)
from repro.optimizer.repository import (
    OptimizeOutcome,
    PlanRepository,
    RepositoryStats,
)

__all__ = [
    "BestPlanResult",
    "BestPlanSearch",
    "ComponentSpec",
    "CostModel",
    "FactorizedPlan",
    "IncrementalClusterer",
    "InputCandidate",
    "OptimizeOutcome",
    "PlanRepository",
    "RepositoryStats",
    "ReuseOracle",
    "SourceSpec",
    "cluster_user_queries",
    "component_node_id",
    "driving_stream_aliases",
    "enumerate_candidates",
    "factorize",
    "jaccard",
    "source_node_id",
    "streamable_aliases",
]
