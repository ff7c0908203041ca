"""Shared experiment infrastructure.

Every table/figure driver runs the same pipeline: build (or reuse) a
federation, expand the workload, execute it under one or more sharing
configurations, and collect an :class:`~repro.atc.engine.EngineReport`
per run.  This module centralizes that, plus the scale presets:

* ``quick``  -- small GUS-like instances; every figure regenerates in
  seconds.  This is what the benchmark suite runs.
* ``paper``  -- the paper-shaped scale (more relations, more rows, four
  instances).  Slower; for offline reproduction runs.

The engine is deterministic given a seed, so instead of the paper's
"three runs over each database instance" we average across the four
seeded instances only (repeat runs would be identical).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.atc.engine import EngineReport, QSystemEngine
from repro.common.config import ExecutionConfig, SharingMode
from repro.data.biodb import BioDBConfig, biodb_federation
from repro.data.database import Federation
from repro.data.gus import GUSConfig, gus_federation
from repro.data.inverted import InvertedIndex
from repro.keyword.queries import UserQuery
from repro.workload.realdata import build_realdata_workload, realdata_workload_config
from repro.workload.synthetic import WorkloadConfig, build_workload

#: The four configurations of Section 7.1, in the paper's order.
ALL_MODES: tuple[SharingMode, ...] = (
    SharingMode.ATC_CQ,
    SharingMode.ATC_UQ,
    SharingMode.ATC_FULL,
    SharingMode.ATC_CL,
)


@dataclass(frozen=True)
class ExperimentScale:
    """One reproduction scale: corpus + workload sizes."""

    name: str
    gus: GUSConfig
    workload: WorkloadConfig
    biodb: BioDBConfig
    n_instances: int
    execution: ExecutionConfig

    def with_mode(self, mode: SharingMode) -> ExecutionConfig:
        return self.execution.with_mode(mode)


def quick_scale(seed: int = 11) -> ExperimentScale:
    """Seconds-per-figure scale for benchmarks and CI."""
    return ExperimentScale(
        name="quick",
        gus=GUSConfig(n_hubs=8, links_per_extra_hub=2, synonym_every=3,
                      satellites_per_hub=1, n_sites=4,
                      min_rows=80, max_rows=260,
                      domain_factor=0.45, seed=seed),
        # vocabulary_size matches the paper's "list of common
        # biological terms": short, so Zipf-drawn keyword pairs recur
        # across user queries and reuse has something to bite on.
        workload=WorkloadConfig(n_queries=15, k=20, seed=seed * 3 + 1,
                                vocabulary_size=12),
        biodb=BioDBConfig.tiny(seed=seed * 5 + 2),
        n_instances=2,
        execution=ExecutionConfig(k=20, batch_size=5, seed=seed),
    )


def paper_scale(seed: int = 11) -> ExperimentScale:
    """Paper-shaped scale (minutes per figure)."""
    return ExperimentScale(
        name="paper",
        gus=GUSConfig(seed=seed),
        workload=WorkloadConfig(n_queries=15, k=50, seed=seed * 3 + 1),
        biodb=BioDBConfig(seed=seed * 5 + 2),
        n_instances=4,
        execution=ExecutionConfig(k=50, batch_size=5, seed=seed),
    )


@dataclass
class WorkloadBundle:
    """A federation plus its expanded, timestamped user queries."""

    federation: Federation
    uqs: list[UserQuery]
    index: InvertedIndex


_BUNDLE_CACHE: dict[tuple, WorkloadBundle] = {}


def synthetic_bundle(scale: ExperimentScale, instance: int = 0
                     ) -> WorkloadBundle:
    """Build (and memoize) one synthetic GUS-like instance + workload.

    The cache key covers the full corpus and workload configurations,
    so scale variants (e.g. Figure 9's compressed arrivals) never
    collide.
    """
    workload = replace(scale.workload, k=scale.execution.k)
    key = ("gus", scale.gus, workload, instance)
    bundle = _BUNDLE_CACHE.get(key)
    if bundle is None:
        federation = gus_federation(scale.gus, instance=instance)
        index = InvertedIndex(federation)
        uqs = build_workload(federation, workload, index=index)
        bundle = WorkloadBundle(federation, uqs, index)
        _BUNDLE_CACHE[key] = bundle
    return bundle


def realdata_bundle(scale: ExperimentScale) -> WorkloadBundle:
    """Build (and memoize) the Pfam/InterPro-like instance + workload."""
    key = ("biodb", scale.name, scale.biodb.seed)
    bundle = _BUNDLE_CACHE.get(key)
    if bundle is None:
        federation = biodb_federation(scale.biodb)
        index = InvertedIndex(federation)
        workload = replace(realdata_workload_config(scale.biodb.seed),
                           k=scale.execution.k)
        uqs = build_realdata_workload(federation, workload, index=index)
        bundle = WorkloadBundle(federation, uqs, index)
        _BUNDLE_CACHE[key] = bundle
    return bundle


def run_workload(bundle: WorkloadBundle, config: ExecutionConfig,
                 first_n: int | None = None) -> EngineReport:
    """Execute (a prefix of) a bundle's workload under one config."""
    engine = QSystemEngine(bundle.federation, config, index=bundle.index)
    uqs = bundle.uqs if first_n is None else bundle.uqs[:first_n]
    for uq in uqs:
        engine.submit_user_query(uq)
    return engine.run()


def run_all_modes(bundle: WorkloadBundle, base: ExecutionConfig,
                  first_n: int | None = None
                  ) -> dict[SharingMode, EngineReport]:
    """One report per Section 7.1 configuration."""
    return {
        mode: run_workload(bundle, base.with_mode(mode), first_n=first_n)
        for mode in ALL_MODES
    }


@dataclass
class SeriesTable:
    """A printable table: one row per x value, one column per series.

    Benchmarks print these in the paper's layout and save them under
    ``benchmarks/results/``.
    """

    title: str
    x_label: str
    columns: list[str]
    rows: list[tuple[object, ...]] = field(default_factory=list)

    def add_row(self, x: object, *values: object) -> None:
        self.rows.append((x, *values))

    def render(self) -> str:
        header = [self.x_label] + self.columns
        widths = [max(len(str(header[i])),
                      max((len(_fmt(row[i])) for row in self.rows),
                          default=0))
                  for i in range(len(header))]
        lines = [self.title]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(
                _fmt(v).ljust(w) for v, w in zip(row, widths)
            ))
        return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
