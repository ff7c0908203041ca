"""Service telemetry: tail latencies, throughput, cache effectiveness.

The paper reports per-query averages over a 15-query workload; a
serving layer under open-loop load is judged by its *distribution* --
the p95/p99 stragglers that batching, contention, and admission policy
create.  :class:`Telemetry` accumulates one latency sample per served
query (arrival to answer, in virtual seconds; cache hits count at their
actual -- near zero -- latency) plus the admission/caching counters,
and renders the operator's one-screen summary.

Boundary contract: a statistic that is *undefined* -- a percentile or
mean over zero samples, a throughput with zero completions -- is
uniformly ``None``, never a silent ``0.0`` or NaN, so snapshot
consumers can distinguish "no data yet" from "measured zero".  A
single-sample window is defined: every percentile *is* that sample.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from repro.obs.instruments import MetricsRegistry


def percentile(samples: Sequence[float], pct: float) -> float | None:
    """Linear-interpolation percentile (numpy's default method).

    ``pct`` is in [0, 100].  Returns ``None`` for an empty sample set
    rather than raising or yielding NaN: a telemetry line with no
    completions yet is a normal serving condition, not an error, and
    ``None`` cannot be confused with a measured 0.0 latency.  With a
    single sample every percentile is that sample.
    """
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"pct must lie in [0, 100], got {pct}")
    if not samples:
        return None
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class _Counter:
    """One telemetry counter, declared once in :class:`Telemetry`'s
    body: its metric name, help string, and whether it reads back as a
    ``float`` (``int`` otherwise).

    The attribute name is the one it is assigned to; the instrument
    is registered per instance from this declaration, so a
    :class:`Telemetry` built on a registry that already holds the
    counters (one rebuilt from a worker's wire state) reads them, and
    ``COUNTER_FIELDS``, what :meth:`Telemetry.merged` adds, lists the
    declarations.  Reads return the sample value; writes set the
    counter absolutely, so ``tel.submitted += 1`` and the absolute
    overwrite in :meth:`Telemetry.sync_optimizer` both work on top of
    the instruments.
    """

    def __init__(self, metric: str, help: str,
                 as_float: bool = False) -> None:
        self.metric = metric
        self.help = help
        self.as_float = as_float

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        value = obj._counters[self].value()
        return value if self.as_float else int(value)

    def __set__(self, obj, value) -> None:
        obj._counters[self].set(float(value))


class Telemetry:
    """Aggregates one service run's operational numbers.

    ``completed``, ``rejected``, ``cancelled``, and ``expired`` are
    terminal dispositions: once a run is drained, every submitted
    query is exactly one of the four (``completed + rejected +
    cancelled + expired == submitted``).  ``deferred``,
    ``served_from_cache``, ``coalesced``, and ``no_results`` are
    *event/route* counters along the way -- a deferred query later
    completes (or is cancelled or expires), so ``deferred`` overlaps
    the terminal counts by design.

    ``latencies`` holds one arrival-to-answer sample per *completed*
    query; ``ttfas`` holds one arrival-to-first-answer sample per
    query that ever received an answer (completed queries always; a
    cancelled/expired query contributes iff something had streamed out
    before it was retired) -- the streaming API's headline metric.

    Every counter attribute is backed by a ``repro_service_*`` /
    ``repro_optimizer_*`` instrument in a
    :class:`~repro.obs.instruments.MetricsRegistry` (the service's,
    when one is passed; a private one otherwise), so the rendered
    summary and the exported metrics can never drift apart.  The
    latency/TTFA sample lists stay plain lists -- percentile math wants
    raw samples -- and are republished into the registry's histograms
    by a collector at snapshot time, never on the hot path;
    :meth:`samples` and :meth:`absorb` carry them between telemetries.
    """

    submitted = _Counter("repro_service_submitted_total", "queries admitted")
    completed = _Counter("repro_service_completed_total",
                         "queries fully served")
    served_from_cache = _Counter("repro_service_cache_served_total",
                                 "queries answered from the result cache")
    coalesced = _Counter(
        "repro_service_coalesced_total",
        "queries attached to an identical in-flight execution")
    rejected = _Counter("repro_service_rejected_total",
                        "queries shed by admission")
    deferred = _Counter("repro_service_deferred_total",
                        "queries parked for retry")
    cancelled = _Counter("repro_service_cancelled_total",
                         "queries abandoned by clients")
    expired = _Counter("repro_service_expired_total",
                       "queries retired at deadline")
    no_results = _Counter("repro_service_no_results_total",
                          "queries no candidate network could answer")
    #: Queries lost to infrastructure failure (a worker process died
    #: with them in flight) -- a fifth terminal disposition, distinct
    #: from the four client-visible ones above because nothing the
    #: client did caused it.
    failed = _Counter("repro_service_failed_total",
                      "queries lost to a worker-process crash")
    worker_restarts = _Counter("repro_service_worker_restarts_total",
                               "worker processes respawned after a crash")
    #: Optimizer visibility, synced from the engine's per-invocation
    #: records (absolute totals, overwritten on every sync -- so the
    #: sync is idempotent and a merged fleet view simply sums shards).
    optimizer_wall = _Counter("repro_optimizer_wall_seconds_total",
                              "measured optimizer wall time", as_float=True)
    optimizer_invocations = _Counter("repro_optimizer_invocations_total",
                                     "optimizer invocations")
    plans_explored = _Counter("repro_optimizer_plans_explored_total",
                              "plans explored across invocations")

    _DECLARED = {name: value for name, value in list(vars().items())
                 if isinstance(value, _Counter)}
    #: Every scalar counter, in declaration order -- what
    #: :meth:`merged` adds.
    COUNTER_FIELDS = tuple(_DECLARED)

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        r = self.registry
        self._counters = {decl: r.counter(decl.metric, decl.help)
                          for decl in self._DECLARED.values()}
        self._latency_hist = r.histogram(
            "repro_service_latency_virtual_seconds",
            "arrival-to-answer latency, virtual seconds")
        self._ttfa_hist = r.histogram(
            "repro_service_ttfa_virtual_seconds",
            "arrival-to-first-answer, virtual seconds")
        self.latencies: list[float] = []
        self.ttfas: list[float] = []
        self.first_arrival: float | None = None
        self.last_event: float = 0.0
        r.add_collector(self._publish_samples)

    def _publish_samples(self) -> None:
        """Derive the histograms from the raw sample lists (collector:
        runs at snapshot/export time, never per query)."""
        self._latency_hist.set_samples(self.latencies)
        self._ttfa_hist.set_samples(self.ttfas)

    # -- recording ----------------------------------------------------------

    def record_arrival(self, at: float) -> None:
        self.submitted += 1
        if self.first_arrival is None or at < self.first_arrival:
            self.first_arrival = at
        self.last_event = max(self.last_event, at)

    def record_completion(self, at: float, latency: float,
                          ttfa: float | None = None) -> None:
        """One query answered -- whether executed, coalesced, or cached.

        ``ttfa`` is the arrival-to-first-answer time; callers that
        serve the whole answer at once (cache hits, follower release)
        pass the latency itself, streaming consumers pass the first
        emission's instant.  ``None`` (an empty top-k: no answer ever
        existed to deliver first) records no TTFA sample.
        """
        if latency < 0:
            raise ValueError(f"latency cannot be negative, got {latency}")
        self.completed += 1
        self.latencies.append(latency)
        if ttfa is not None:
            if ttfa < 0:
                raise ValueError(f"ttfa cannot be negative, got {ttfa}")
            self.ttfas.append(ttfa)
        self.last_event = max(self.last_event, at)

    def record_cancellation(self, at: float, ttfa: float | None = None) -> None:
        """One query abandoned by its client before completion."""
        self.cancelled += 1
        if ttfa is not None:
            self.ttfas.append(ttfa)
        self.last_event = max(self.last_event, at)

    def record_expiry(self, at: float, ttfa: float | None = None) -> None:
        """One query retired by its deadline before completion."""
        self.expired += 1
        if ttfa is not None:
            self.ttfas.append(ttfa)
        self.last_event = max(self.last_event, at)

    def record_cache_hit(self) -> None:
        self.served_from_cache += 1

    def record_coalesced(self) -> None:
        self.coalesced += 1

    def record_rejection(self) -> None:
        self.rejected += 1

    def record_deferral(self) -> None:
        self.deferred += 1

    def record_no_results(self) -> None:
        self.no_results += 1

    def record_failure(self, at: float) -> None:
        """One query lost to a worker-process crash."""
        self.failed += 1
        self.last_event = max(self.last_event, at)

    def record_worker_restart(self) -> None:
        self.worker_restarts += 1

    def sync_optimizer(self, records: Iterable) -> None:
        """Refresh the optimizer totals from the engine's cumulative
        :class:`~repro.obs.records.OptimizerRecord` list.  Absolute
        overwrite, not accumulation: the record list itself is
        cumulative, so re-syncing at every report stays correct."""
        records = list(records)
        self.optimizer_invocations = len(records)
        self.optimizer_wall = sum(r.elapsed_wall for r in records)
        self.plans_explored = sum(r.plans_explored for r in records)

    # -- merging -------------------------------------------------------------

    def samples(self) -> dict:
        """What no instrument holds, as plain data: the raw latency and
        TTFA samples and the serving window (a process worker ships it
        beside its registry: :class:`~repro.service.protocol.
        SnapshotReply`)."""
        return {"latencies": list(self.latencies), "ttfas": list(self.ttfas),
                "first_arrival": self.first_arrival,
                "last_event": self.last_event}

    def absorb(self, samples: dict) -> None:
        """Add another telemetry's :meth:`samples`: the sample lists
        concatenate (percentiles over the union are the true combined
        distribution) and the serving window spans both."""
        self.latencies.extend(samples["latencies"])
        self.ttfas.extend(samples["ttfas"])
        first = samples["first_arrival"]
        if first is not None and (self.first_arrival is None
                                  or first < self.first_arrival):
            self.first_arrival = first
        self.last_event = max(self.last_event, samples["last_event"])

    @classmethod
    def merged(cls, parts: Iterable["Telemetry"]) -> "Telemetry":
        """Fleet-level aggregate of several shards' telemetries: the
        samples are absorbed and the counters add."""
        out = cls()
        for part in parts:
            out.absorb(part.samples())
            for name in cls.COUNTER_FIELDS:
                setattr(out, name, getattr(out, name) + getattr(part, name))
        return out

    # -- derived ---------------------------------------------------------------

    def latency_percentiles(self) -> dict[str, float | None]:
        return {
            "p50": percentile(self.latencies, 50.0),
            "p95": percentile(self.latencies, 95.0),
            "p99": percentile(self.latencies, 99.0),
        }

    def ttfa_percentiles(self) -> dict[str, float | None]:
        """Time-to-first-answer tails: how long a *streaming* consumer
        waits before anything arrives (completion latency measures the
        full top-k instead)."""
        return {
            "ttfa_p50": percentile(self.ttfas, 50.0),
            "ttfa_p95": percentile(self.ttfas, 95.0),
        }

    def mean_latency(self) -> float | None:
        """Mean latency over the window, or ``None`` with no samples."""
        if not self.latencies:
            return None
        return sum(self.latencies) / len(self.latencies)

    def elapsed(self) -> float:
        """Virtual seconds from first arrival to last completion."""
        if self.first_arrival is None:
            return 0.0
        return max(self.last_event - self.first_arrival, 0.0)

    def throughput(self) -> float | None:
        """Completed queries per virtual second over the serving window.

        ``None`` before any completion (a rate over an empty window is
        undefined, not zero); ``inf`` when completions exist but the
        window has zero width (everything served at the first arrival
        instant).
        """
        if self.completed == 0:
            return None
        span = self.elapsed()
        if span <= 0.0:
            return float("inf")
        return self.completed / span

    def optimizer_share(self) -> float | None:
        """Cumulative optimizer wall seconds per virtual serving
        second.  ``None`` while the serving window is empty (a share of
        a zero-width window is undefined, not zero)."""
        span = self.elapsed()
        if span <= 0.0:
            return None
        return self.optimizer_wall / span

    def summary(self) -> dict[str, float | None]:
        out = {
            "submitted": float(self.submitted),
            "completed": float(self.completed),
            "served_from_cache": float(self.served_from_cache),
            "coalesced": float(self.coalesced),
            "rejected": float(self.rejected),
            "deferred": float(self.deferred),
            "cancelled": float(self.cancelled),
            "expired": float(self.expired),
            "no_results": float(self.no_results),
            "failed": float(self.failed),
            "worker_restarts": float(self.worker_restarts),
            "elapsed_virtual_s": self.elapsed(),
            "throughput_qps": self.throughput(),
            "mean_latency": self.mean_latency(),
            "optimizer_wall_s": self.optimizer_wall,
            "optimizer_share": self.optimizer_share(),
            "plans_explored": float(self.plans_explored),
        }
        out.update(self.latency_percentiles())
        out.update(self.ttfa_percentiles())
        return out

    def render(self, cache_hit_rate: float | None = None) -> str:
        """The operator's summary block (the ``serve`` command prints it)."""
        pcts = self.latency_percentiles()
        ttfa = self.ttfa_percentiles()
        lines = [
            f"served    : {self.completed}/{self.submitted} queries "
            f"({self.served_from_cache} from cache, "
            f"{self.coalesced} coalesced, {self.rejected} rejected, "
            f"{self.deferred} deferred, {self.cancelled} cancelled, "
            f"{self.expired} expired, {self.no_results} empty"
            + (f", {self.failed} failed after "
               f"{self.worker_restarts} worker restarts"
               if self.failed or self.worker_restarts else "") + ")",
            f"latency   : p50 {fmt_stat(pcts['p50'], 's')}  "
            f"p95 {fmt_stat(pcts['p95'], 's')}  "
            f"p99 {fmt_stat(pcts['p99'], 's')}  "
            f"(mean {fmt_stat(self.mean_latency(), 's')}, virtual)",
            f"ttfa      : p50 {fmt_stat(ttfa['ttfa_p50'], 's')}  "
            f"p95 {fmt_stat(ttfa['ttfa_p95'], 's')}  "
            f"(first answer, virtual)",
            f"throughput: {fmt_stat(self.throughput(), '', 2)} "
            f"queries/virtual s over {self.elapsed():.1f}s",
            f"optimizer : {self.optimizer_wall:.3f}s wall over "
            f"{self.optimizer_invocations} invocations "
            f"(share {fmt_stat(self.optimizer_share(), '', 3)}), "
            f"{self.plans_explored} plans explored",
        ]
        if cache_hit_rate is not None:
            lines.append(f"cache     : {cache_hit_rate:.1%} hit rate")
        return "\n".join(lines)


def fmt_stat(value: float | None, suffix: str = "", digits: int = 3) -> str:
    """Render one telemetry statistic; undefined (``None``) prints n/a."""
    if value is None:
        return "n/a"
    if math.isinf(value):
        return f"inf{suffix}"
    return f"{value:.{digits}f}{suffix}"
