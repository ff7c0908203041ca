"""Cost model and cardinality estimation.

The paper leverages the rank-aware cost estimation of [16, 29]: the
dominant costs of a plan are (a) the number of tuples streamed in from
each pushed-down input, (b) the number of remote probes, and (c) the
in-memory join work, with (a) and (b) paying wide-area latency.

Cardinalities follow the textbook System-R estimates: join selectivity
``1 / max(V(R,a), V(S,b))`` from distinct-value statistics, constant
default selectivities for text predicates.  *Depth* -- how far into a
sorted input a top-k query must read -- uses the standard
prefix-proportionality argument: to produce the top ``k`` of a CQ whose
full result has ``card(CQ)`` tuples, an input ``J`` contributes roughly
``card(J) * (depth_factor * k / card(CQ))`` of its prefix, clamped to
``[min_depth, card(J)]``.  Inputs shared by several queries are read
once, at the deepest consumer's depth -- this is where shared
subexpressions pay off in the model, exactly as they do at runtime.

Cardinality estimates are memoized on the interned expression itself
(see :meth:`CostModel.est_cardinality`); relation statistics on the
federation (:meth:`~repro.data.database.Federation.stats`).  A miss
therefore costs arithmetic, a hit one attribute read, and nothing here
keeps an expression alive.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.common.config import ExecutionConfig
from repro.data.database import Federation
from repro.keyword.queries import ConjunctiveQuery
from repro.plan.expressions import SPJ

#: Default selectivity of a ``contains`` predicate when the statistics
#: cannot say better (text matches in the synthetic corpora are broad).
CONTAINS_SELECTIVITY = 0.35
#: Default selectivity of an equality predicate against a non-key.
EQ_SELECTIVITY = 0.05


class ReuseOracle:
    """Interface the QS manager implements so the optimizer can cost
    reuse (Section 6.1: "the optimizer then adjusts the estimate of
    using J in a plan to account for any source tuples already read").
    No pin against eviction is needed: planning and grafting run in one
    call, and the budget is enforced only after the next drive."""

    def tuples_already_read(self, expr: SPJ) -> int:
        """How many tuples of input ``expr`` a previous execution has
        already streamed into memory (0 when unknown)."""
        return 0


class CostModel:
    """Estimates cardinalities and plan costs over one federation."""

    def __init__(self, federation: Federation, config: ExecutionConfig,
                 read_unit: float | None = None,
                 probe_unit: float | None = None,
                 cpu_unit: float = 0.00002,
                 depth_factor: float = 3.0,
                 min_depth: int = 24,
                 input_overhead: float = 0.003) -> None:
        self.federation = federation
        self.config = config
        self.read_unit = (read_unit if read_unit is not None
                          else config.delays.stream_read_mean)
        self.probe_unit = (probe_unit if probe_unit is not None
                           else config.delays.random_probe_mean)
        self.cpu_unit = cpu_unit
        self.depth_factor = depth_factor
        self.min_depth = min_depth
        self.input_overhead = input_overhead

    # -- cardinalities ------------------------------------------------------------

    def est_cardinality(self, expr: SPJ) -> float:
        """System-R style estimate for a select-project-join expression.

        A function of the expression and the federation's statistics
        alone, so it is memoized *on the interned expression*, stamped
        with the statistics epoch it was computed under: one slot per
        expression, shared by every cost model and every query that
        contains the expression, dead with the expression (the memo
        holds a float, never a reference), and void as soon as the
        corpus -- or the federation asking -- is another.
        """
        epoch = self.federation.stats_epoch
        cached = expr.__dict__.get("_cardinality")
        if cached is not None and cached[0] == epoch:
            return cached[1]
        total = 1.0
        for atom in expr.atoms:
            stats = self.federation.stats(atom.relation)
            card = float(max(1, stats.cardinality))
            for sel in expr.selections_on(atom.alias):
                if sel.op == "contains":
                    card *= CONTAINS_SELECTIVITY
                elif sel.op == "eq":
                    card *= max(EQ_SELECTIVITY,
                                1.0 / stats.distinct_of(sel.attr))
                else:
                    card *= 0.5
            total *= max(card, 0.01)
        alias_stats = {
            a.alias: self.federation.stats(a.relation) for a in expr.atoms
        }
        for pred in expr.joins:
            left = alias_stats[pred.left_alias].distinct_of(pred.left_attr)
            right = alias_stats[pred.right_alias].distinct_of(pred.right_attr)
            total /= max(left, right, 1)
        estimate = max(total, 0.01)
        expr.__dict__["_cardinality"] = (epoch, estimate)
        return estimate

    # -- depths ----------------------------------------------------------------------

    def depth_budget(self, k: int | None = None) -> float:
        return self.depth_factor * (k if k is not None else self.config.k)

    def stream_preference_limit(self) -> float:
        """Cardinality below which streaming an unselected atom is
        preferred over probing it.

        An unselected relation's stream has a flat score profile, so
        the threshold descends slowly: reading it deep is wasted
        latency unless the relation is small enough to exhaust.  Above
        this limit the optimizer accesses the relation by key probes
        instead -- the paper's Figure 4 probes TP_R and UP_R for
        exactly this reason even though both carry score attributes.
        """
        return 3.0 * self.depth_budget()

    def expected_read(self, input_expr: SPJ, consumer: ConjunctiveQuery
                      ) -> float:
        """Tuples of ``input_expr`` one consumer needs streamed in."""
        input_card = self.est_cardinality(input_expr)
        result_card = self.est_cardinality(consumer.expr)
        per_result = input_card / max(result_card, 1.0)
        depth = self.depth_budget() * max(1.0, per_result)
        return min(input_card, max(self.min_depth, depth))

    def input_stream_cost(self, input_expr: SPJ,
                          consumers: Iterable[ConjunctiveQuery],
                          already_read: int = 0) -> float:
        """Latency cost of streaming one shared input for all consumers.

        The input is read once at the deepest consumer's depth; tuples a
        previous execution already buffered (Section 6.1) are free.
        """
        depth = max(
            (self.expected_read(input_expr, cq) for cq in consumers),
            default=0.0,
        )
        return self.read_cost(depth, already_read)

    def read_cost(self, depth: float, already_read: int = 0) -> float:
        """Latency cost of one input read ``depth`` tuples deep."""
        billable = max(0.0, depth - already_read)
        return self.input_overhead + self.read_unit * billable

    # -- probes and joins ------------------------------------------------------------

    def probe_source_cost(self, relation: str,
                          consumers_count: int = 1) -> float:
        """Latency cost of one random-access source over a batch.

        Probe results are cached per source, so the cost scales with
        the probe-key surface (~ depth budget), not with the number of
        consumers sharing the source.
        """
        depth = self.depth_budget()
        return self.probe_unit * depth * (1.0 + 0.15 * (consumers_count - 1))

    def join_cpu_cost(self, cq: ConjunctiveQuery) -> float:
        return self.cpu_unit * self.depth_budget() * cq.expr.size

    # -- whole-plan cost ----------------------------------------------------------------

    def plan_cost(self,
                  assignment: Mapping[SPJ, frozenset[str]],
                  cq_by_id: Mapping[str, ConjunctiveQuery],
                  probe_atoms: Mapping[str, tuple[str, ...]],
                  oracle: ReuseOracle | None = None) -> float:
        """Cost of a complete input assignment ``(I, I-map)``.

        ``assignment`` maps each input expression to its consumer CQ
        ids; ``probe_atoms`` maps each CQ id to the aliases it resolves
        by remote probing.  Shared inputs are costed once; shared
        random-access sources (same relation + selections) are costed
        once per distinct source.
        """
        total = 0.0
        for input_expr, consumer_ids in assignment.items():
            consumers = [cq_by_id[c] for c in consumer_ids]
            already = oracle.tuples_already_read(input_expr) if oracle else 0
            total += self.input_stream_cost(input_expr, consumers, already)
        ra_sources: dict[tuple, int] = {}
        for cq_id, aliases in probe_atoms.items():
            cq = cq_by_id[cq_id]
            for alias in aliases:
                key = probe_source_key(cq.expr, alias)
                ra_sources[key] = ra_sources.get(key, 0) + 1
        for (relation, _sels), count in ra_sources.items():
            total += self.probe_source_cost(relation, count)
        for cq in cq_by_id.values():
            total += self.join_cpu_cost(cq)
        return total


def probe_source_key(expr: SPJ, alias: str) -> tuple[str, tuple]:
    """The identity of the random-access source one probed atom uses:
    ``(relation, selections)``, alias-free, so atoms of different
    queries that probe the same filtered relation share one source."""
    return (
        expr.alias_to_relation[alias],
        tuple(sorted((s.attr, s.op, repr(s.value))
                     for s in expr.selections_on(alias))),
    )
