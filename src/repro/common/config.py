"""Run-wide configuration objects.

:class:`ExecutionConfig` gathers every tunable the paper mentions in one
frozen dataclass: the sharing mode (Section 7.1's four configurations),
the batch size (Figure 9), top-k, the network delay model (Section 7
"Delays"), the probe-vs-stream threshold tau(R) (Section 5.1.1), the
clustering thresholds Tm and Tc (Section 6.1), and the state-cache
budget (Section 6.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any


class SharingMode(enum.Enum):
    """The four optimizer/QS-manager configurations of Section 7.1.

    * ``ATC_CQ``   -- baseline: each user query optimized separately and
      subexpression sharing disabled even among its own conjunctive
      queries; every CQ runs as an isolated m-join.
    * ``ATC_UQ``   -- sharing enabled within one user query, disabled
      across user queries.
    * ``ATC_FULL`` -- a single query plan graph executes every user
      query ever received; state is reused across time.
    * ``ATC_CL``   -- user queries are clustered (Section 6.1) and each
      cluster gets its own plan graph and ATC, trading a little sharing
      for much less contention.
    """

    ATC_CQ = "ATC-CQ"
    ATC_UQ = "ATC-UQ"
    ATC_FULL = "ATC-FULL"
    ATC_CL = "ATC-CL"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class DelayModel:
    """Simulated wide-area network costs, in (virtual) seconds.

    The paper adds a Poisson-distributed delay averaging 2 ms to every
    tuple read from a data stream and every join probe against a remote
    DBMS.  ``cpu_probe`` and ``cpu_insert`` model the (much smaller)
    in-memory join work so that "Join time" in Figure 8 is non-zero.
    """

    stream_read_mean: float = 0.002
    random_probe_mean: float = 0.002
    cpu_probe: float = 0.00002
    cpu_insert: float = 0.00001
    deterministic: bool = False

    def __post_init__(self) -> None:
        for name in ("stream_read_mean", "random_probe_mean",
                     "cpu_probe", "cpu_insert"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")


@dataclass(frozen=True)
class ExecutionConfig:
    """Everything a single experiment run needs to know.

    Attributes
    ----------
    mode:
        Which of the four sharing configurations to run.
    k:
        Number of top answers per user query (the paper uses 50).
    batch_size:
        How many user queries the batcher groups before optimizing
        (the paper's default is 5; Figure 9 compares against 1).
    batch_window:
        How long (virtual seconds) the batcher collects queries before
        a partial batch is dispatched anyway -- the paper's "small time
        interval" of Section 3.  The online service's open-loop arrival
        stream closes batches on this timer; the offline batch path
        uses it as the maximum arrival spread within one batch.
    max_cqs_per_uq:
        Cap on candidate networks per keyword query (paper: 20).
    tau_probe_threshold:
        tau(R) of Section 5.1.1: a score-less relation smaller than this
        may still be streamed; larger ones become probe-only sources.
    min_sharing_queries:
        "Useful subexpression" heuristic: minimum number of CQs that
        must share a subexpression for it to become a push-down
        candidate (base streaming relations are always kept).
    low_cardinality_bonus:
        Subexpressions with estimated cardinality below this are also
        deemed useful regardless of sharing degree.
    cluster_min_refs (Tm):
        Section 6.1: a user query joins a source's seed cluster when it
        references the source more than ``Tm`` times.
    cluster_jaccard (Tc):
        Section 6.1: clusters merge while their Jaccard similarity
        exceeds this threshold.
    memory_budget_tuples:
        QS-manager cache budget, measured in stored tuples (Section 6.3).
        ``None`` means unbounded, matching the paper's expectation that
        memory pressure is rare.
    adaptive_probe_ordering:
        The m-join's runtime adaptivity (Section 4.1: probe sequences
        re-ordered from monitored selectivities).  Disable for the
        ablation that measures what the eddy-style adaptivity buys.
    probe_caching:
        Cache remote probe results (Section 7.1: "we cache tuples from
        random probes").  Disable for ablation.
    optimizer_time_scale:
        How much of the optimizer's *measured wall time* is charged to
        the plan graph's virtual clock.  1.0 (default) is the paper's
        accounting ("our timings included query optimization as a
        component"); 0.0 makes runs bit-for-bit deterministic across
        machines and load -- every other virtual cost is seeded -- which
        is what throughput benchmarks comparing sharing modes need.
    scheduler:
        ATC scheduling policy across rank-merge operators.  The paper
        "explored a variety of scheduling schemes, and found that a
        round-robin scheme worked best"; ``"priority"`` (always serve
        the rank-merge with the highest frontier) is the alternative
        the ablation compares against.
    seed:
        Master seed for all stochastic components of the run.
    """

    mode: SharingMode = SharingMode.ATC_FULL
    k: int = 50
    batch_size: int = 5
    batch_window: float = 30.0
    max_cqs_per_uq: int = 20
    tau_probe_threshold: int = 200
    min_sharing_queries: int = 4
    low_cardinality_bonus: int = 100
    cluster_min_refs: int = 2
    cluster_jaccard: float = 0.5
    memory_budget_tuples: int | None = None
    adaptive_probe_ordering: bool = True
    probe_caching: bool = True
    optimizer_time_scale: float = 1.0
    scheduler: str = "round_robin"
    delays: DelayModel = field(default_factory=DelayModel)
    seed: int = 42

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.batch_window < 0:
            raise ValueError(
                f"batch_window must be non-negative, got {self.batch_window}"
            )
        if self.max_cqs_per_uq <= 0:
            raise ValueError(
                f"max_cqs_per_uq must be positive, got {self.max_cqs_per_uq}"
            )
        if not 0.0 <= self.cluster_jaccard <= 1.0:
            raise ValueError(
                f"cluster_jaccard must lie in [0, 1], got {self.cluster_jaccard}"
            )
        if self.memory_budget_tuples is not None and self.memory_budget_tuples <= 0:
            raise ValueError("memory_budget_tuples must be positive or None")
        if self.optimizer_time_scale < 0:
            raise ValueError(
                f"optimizer_time_scale must be non-negative, "
                f"got {self.optimizer_time_scale}"
            )
        if self.scheduler not in ("round_robin", "priority"):
            raise ValueError(
                f"scheduler must be 'round_robin' or 'priority', "
                f"got {self.scheduler!r}"
            )

    def with_mode(self, mode: SharingMode) -> "ExecutionConfig":
        """Return a copy of this config running under ``mode``."""
        return replace(self, mode=mode)

    def with_overrides(self, **kwargs: Any) -> "ExecutionConfig":
        """Return a copy with arbitrary fields replaced."""
        return replace(self, **kwargs)

    @property
    def shares_within_uq(self) -> bool:
        """Whether subexpressions may be shared among one UQ's CQs."""
        return self.mode is not SharingMode.ATC_CQ

    @property
    def shares_across_uqs(self) -> bool:
        """Whether subexpressions may be shared across user queries."""
        return self.mode in (SharingMode.ATC_FULL, SharingMode.ATC_CL)

    @property
    def reuses_state(self) -> bool:
        """Whether plan state survives between batches for reuse."""
        return self.mode in (SharingMode.ATC_FULL, SharingMode.ATC_CL)
