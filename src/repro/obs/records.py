"""Execution metrics records.

One :class:`Metrics` instance accompanies each ATC (each query plan
graph).  It accumulates exactly the quantities Section 7 reports:

* the Figure 8 time breakdown -- stream read time, random access
  (remote probe) time, and in-memory join time;
* the Figure 10 work measure -- total input tuples consumed;
* per-user-query latency and the number of conjunctive queries that had
  to be activated (Figure 7 / Table 4);
* optimizer timings against candidate counts (Figure 11).

Metrics can be merged, which the harness uses to aggregate across the
multiple ATCs of the clustered configuration.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class UQRecord:
    """Outcome of one user query: identity, latency, work.

    Three timestamps: ``arrival`` (user posed the query),
    ``dispatched`` (its batch reached the optimizer -- the batcher wait
    ends here), and ``started`` (optimization done, execution begins).
    """

    uq_id: str
    arrival: float = 0.0
    started: float = 0.0
    dispatched: float | None = None
    completed: float | None = None
    results_returned: int = 0
    cqs_total: int = 0
    cqs_executed: int = 0
    #: Virtual instant the rank-merge emitted its first answer (the
    #: TTFA anchor), or ``None`` if nothing was ever emitted.
    first_emitted: float | None = None
    #: Terminal disposition: "completed", or "cancelled"/"expired"
    #: when the query was retired early (``completed`` then records
    #: the retirement instant, not a top-k completion).
    outcome: str = "completed"

    @property
    def latency(self) -> float | None:
        """Virtual seconds from arrival to top-k completion (``None``
        for in-flight and early-retired queries)."""
        if self.completed is None or self.outcome != "completed":
            return None
        return self.completed - self.arrival

    @property
    def ttfa(self) -> float | None:
        """Virtual seconds from arrival to the first emitted answer."""
        if self.first_emitted is None:
            return None
        return max(self.first_emitted - self.arrival, 0.0)

    @property
    def execution_time(self) -> float | None:
        """Virtual seconds from first scheduling to completion
        (``None`` for early-retired queries, whose truncated spans
        must not leak into the paper's timing distributions)."""
        if self.completed is None or self.outcome != "completed":
            return None
        return self.completed - self.started

    @property
    def processing_time(self) -> float | None:
        """Virtual seconds from batch dispatch to completion: includes
        query optimization, matching the paper's Figure 7/9/12 timings
        ("our previous timings included query optimization as a
        component") but not the batcher's collection wait.  ``None``
        for early-retired queries, like :attr:`latency`."""
        if self.completed is None or self.outcome != "completed":
            return None
        start = self.dispatched if self.dispatched is not None \
            else self.started
        return self.completed - start


@dataclass
class OptimizerRecord:
    """One optimizer invocation: search-space size vs time spent, and
    the work counted in units that do not depend on the host: the
    conjunctive queries planned and the factorization ops applied."""

    candidate_count: int
    plans_explored: int
    elapsed_wall: float
    batch_size: int
    cqs_planned: int = 0
    factorize_ops: int = 0


@dataclass
class Metrics:
    """Counters and stopwatch totals for one plan graph / ATC."""

    stream_read_time: float = 0.0
    random_access_time: float = 0.0
    join_time: float = 0.0

    stream_tuples_read: int = 0
    probes_performed: int = 0
    probe_cache_hits: int = 0
    join_probes: int = 0
    tuples_inserted: int = 0
    tuples_output: int = 0
    tuples_reused: int = 0
    evictions: int = 0
    recovery_queries: int = 0

    per_source_reads: Counter = field(default_factory=Counter)
    uq_records: dict[str, UQRecord] = field(default_factory=dict)
    optimizer_records: list[OptimizerRecord] = field(default_factory=list)

    # -- recording ----------------------------------------------------------

    def record_stream_read(self, source_name: str, delay: float) -> None:
        self.stream_tuples_read += 1
        self.stream_read_time += delay
        self.per_source_reads[source_name] += 1

    def record_probe(self, delay: float, cached: bool) -> None:
        self.probes_performed += 1
        if cached:
            self.probe_cache_hits += 1
        self.random_access_time += delay

    def record_join_probe(self, cpu: float) -> None:
        self.join_probes += 1
        self.join_time += cpu

    def record_insert(self, cpu: float) -> None:
        self.tuples_inserted += 1
        self.join_time += cpu

    def record_uq(self, record: UQRecord) -> None:
        self.uq_records[record.uq_id] = record

    def uq(self, uq_id: str) -> UQRecord:
        return self.uq_records[uq_id]

    # -- derived ---------------------------------------------------------------

    @property
    def total_time(self) -> float:
        return self.stream_read_time + self.random_access_time + self.join_time

    @property
    def total_input_tuples(self) -> int:
        """The Figure 10 work measure: every tuple consumed from a
        streaming source or returned by a remote probe."""
        return self.stream_tuples_read + self.probes_performed

    def breakdown(self) -> dict[str, float]:
        """Fractions of total time per category (Figure 8)."""
        total = self.total_time
        if total == 0:
            return {"stream": 0.0, "random_access": 0.0, "join": 0.0}
        return {
            "stream": self.stream_read_time / total,
            "random_access": self.random_access_time / total,
            "join": self.join_time / total,
        }

    # -- aggregation ---------------------------------------------------------------

    def merge_from(self, other: "Metrics") -> None:
        """Fold another ATC's metrics into this one (used by ATC-CL)."""
        self.stream_read_time += other.stream_read_time
        self.random_access_time += other.random_access_time
        self.join_time += other.join_time
        self.stream_tuples_read += other.stream_tuples_read
        self.probes_performed += other.probes_performed
        self.probe_cache_hits += other.probe_cache_hits
        self.join_probes += other.join_probes
        self.tuples_inserted += other.tuples_inserted
        self.tuples_output += other.tuples_output
        self.tuples_reused += other.tuples_reused
        self.evictions += other.evictions
        self.recovery_queries += other.recovery_queries
        self.per_source_reads.update(other.per_source_reads)
        self.uq_records.update(other.uq_records)
        self.optimizer_records.extend(other.optimizer_records)

    def snapshot(self) -> dict[str, float]:
        """A flat dict of the headline numbers, for harness logging."""
        return {
            "stream_read_time": self.stream_read_time,
            "random_access_time": self.random_access_time,
            "join_time": self.join_time,
            "stream_tuples_read": float(self.stream_tuples_read),
            "probes_performed": float(self.probes_performed),
            "join_probes": float(self.join_probes),
            "tuples_output": float(self.tuples_output),
            "total_input_tuples": float(self.total_input_tuples),
        }
