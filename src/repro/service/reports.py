"""The service report: one type for every serving topology.

:class:`ServiceReport` is what the front door's ``drain()`` /
``report()`` return (:class:`~repro.service.sharding.ShardedQService`,
and so the single-node :class:`~repro.service.server.QService`): the
telemetry block, the answer-cache stats, the engine work line and the
per-query handles.  With one shard the report has that shard's engine
report and admission stats; a fleet report carries one
:class:`ServiceReport` per shard and the router's
:class:`~repro.service.sharding.RoutingStats` instead, which add the
``fleet`` line and the per-shard trailer to :meth:`ServiceReport.render`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.atc.engine import EngineReport
from repro.obs.records import Metrics
from repro.service.handle import QueryHandle
from repro.service.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.sharding import RoutingStats


@dataclass
class ServiceReport:
    """One serving run.

    For a fleet, ``telemetry`` is the merge of the front door's and
    every shard's, ``cache_stats`` is the shared front-door cache (the
    only cache tier whose effectiveness is meaningful fleet-wide), and
    ``shard_reports`` / ``routing`` are set; ``admission_stats`` and
    ``engine_report`` describe a single engine and stay per shard.
    """

    telemetry: Telemetry
    cache_stats: dict[str, float]
    tickets: list[QueryHandle] = field(default_factory=list)
    admission_stats: dict[str, float] = field(default_factory=dict)
    engine_report: EngineReport | None = None
    shard_reports: list[ServiceReport] = field(default_factory=list)
    routing: RoutingStats | None = None

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_stats.get("hit_rate", 0.0)

    @property
    def throughput(self) -> float | None:
        return self.telemetry.throughput()

    def engine_metrics(self) -> Metrics:
        """Execution-work counters over every engine this report spans:
        its own engine's, or the sum across shards (the shared-work
        gauge: fewer input tuples for the same answers means more
        sharing)."""
        if self.shard_reports:
            merged = Metrics()
            for report in self.shard_reports:
                merged.merge_from(report.engine_metrics())
            return merged
        if self.engine_report is None:
            return Metrics()
        return self.engine_report.metrics

    def render(self) -> str:
        metrics = self.engine_metrics()
        lines = [self.telemetry.render(cache_hit_rate=self.cache_hit_rate)]
        if self.routing is not None:
            lines.append(
                f"fleet     : {len(self.shard_reports)} shards "
                f"({self.routing.policy} routing), per-shard load "
                f"{self.routing.routed}, "
                f"{self.routing.spillovers} spill-overs, "
                f"{self.routing.front_cache_hits} front-door cache hits")
        lines.append(
            f"engine    : {metrics.stream_tuples_read} stream reads + "
            f"{metrics.probes_performed} probes "
            f"({metrics.probe_cache_hits} probe-cache hits, "
            f"{metrics.evictions} evictions)")
        for i, report in enumerate(self.shard_reports):
            tel = report.telemetry
            extras = [f"{count} {label}" for label, count in (
                ("coalesced", tel.coalesced),
                ("cache", tel.served_from_cache),
                ("deferred", tel.deferred),
                ("cancelled", tel.cancelled),
                ("expired", tel.expired),
                ("rejected", tel.rejected)) if count]
            trailer = f" ({', '.join(extras)})" if extras else ""
            lines.append(
                f"  shard {i}: {tel.completed}/{tel.submitted} served, "
                f"{report.engine_metrics().total_input_tuples} "
                f"input tuples{trailer}")
        return "\n".join(lines)
