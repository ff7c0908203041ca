"""The plan repository: the optimizer entry point plus two derivation tables.

:meth:`PlanRepository.optimize` runs the Figure 3 pipeline for one
batch group, in full, every time -- the paper's accounting, which
counts optimization in every query's time (Section 5):
:func:`~repro.optimizer.candidates.driving_stream_aliases` per
conjunctive query, :func:`~repro.optimizer.candidates.
enumerate_candidates`, Algorithm 1 (:class:`~repro.optimizer.bestplan.
BestPlanSearch`) and :func:`~repro.optimizer.factorize.factorize`.

The repository keeps two cross-query tables, both FIFO-bounded by
:attr:`PlanRepository.MAX_EXPANSIONS`:

* **expansion interning**.  Mragyati (Sarda & Jain) identifies the
  keyword-to-structured-query translation as the cacheable step: the
  candidate-network generator's keyword-set -> user-query expansion is
  derived once per distinct keyword set (order- and duplicate-free,
  spelling-exact), and repeats are instantiated from the stored
  template under fresh query ids instead of re-enumerating join trees.
  A template holds each expression's parts, not the expression, and no
  score: the parts are the generator's shared ``Atom``, ``JoinPred``
  and ``Selection`` objects and its canonical tuples, so an entry costs
  its own tuples (about 4 KiB on the e2e corpus), and a hit reads each
  score from the generator's skeleton memo, under the federation's
  current statistics.  Nothing primes the table: a respawned process
  worker starts it empty and fills it as it expands.  Loaded rows may
  match a keyword, so the table is dropped whenever the federation's
  statistics epoch moves (``Federation.load``), as the inverted index's
  postings and the generator's keyword matches are.
* **keyword-level fragments**.  A query's expressions die when the
  engine releases it, and with them every fragment derived from
  them.  The fragments whose selections carry a single keyword are
  exactly the ones the next query naming that keyword derives again,
  so after each batch the repository keeps them, per keyword -- and
  the ones that carry no keyword (join paths any query may derive
  again) under one more entry: their memos (canonical key, estimate,
  sub-fragments) are then derived once per keyword, not once per
  query.  The table is bounded by the keywords that match the corpus
  and the schema's join paths, never by queries served.

The optimizer itself memoizes, but on the objects the work is about
rather than in this repository, so those memos need no size policy and
no invalidation beyond the lifetime of their owner:

* the cardinality estimate of an expression -- on the interned
  ``SPJ``, one slot stamped with the federation's statistics epoch;
  void when the federation loads rows, gone with the expression;
* ``order_key``, ``induced`` fragments, canonical renaming and key --
  on the interned ``SPJ``, for as long as a live query, a plan-graph
  operator or the keyword table above holds it;
* relation statistics -- on the ``Federation``, dropped by
  ``Federation.load``;
* the push-down alias subsets of each skeleton (a query's atoms and
  joins, without its selections): the connected 2..3-atom subsets the
  sites can evaluate and that carry a score, found once per skeleton
  and induced from every query with it -- per federation, since they
  read its site placement, keyed by the parts so that no expression is
  kept, FIFO-bounded, gone with the federation;
* per-CQ completions, base-relation preludes and oracle readings --
  on one ``BestPlanSearch``, gone when the search returns;
* the op table, each op's rank and the heap over them -- on one
  ``Factorization``, maintained op by op (an apply re-enters only the
  ops of the component it built), gone when ``factorize`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.clock import wall_timer
from repro.common.config import ExecutionConfig
from repro.data.database import Federation
from repro.keyword.queries import ConjunctiveQuery, UserQuery
from repro.optimizer.bestplan import BestPlanSearch
from repro.optimizer.candidates import (
    driving_stream_aliases,
    enumerate_candidates,
)
from repro.optimizer.cost import CostModel, ReuseOracle
from repro.optimizer.factorize import FactorizedPlan, factorize, ops_applied
from repro.obs.instruments import MetricsRegistry
from repro.obs.records import OptimizerRecord
from repro.plan.expressions import SPJ

#: One cached expansion: ((atoms, joins, selections), matches) per
#: conjunctive query, in the generator's enumeration order (pre
#: upper-bound sort), the order that numbers the ``-cq{i}`` ids, so
#: instantiating a template reproduces a fresh expansion's identifiers
#: exactly.  The parts are canonical (sorted, duplicate-free) and shared
#: with the generator's memos and with every other template that uses
#: them; a hit re-interns the expression from them.  No score and no
#: ``SPJ``: a score is read off the generator's skeleton memo, which
#: follows ``Federation.stats_epoch``, and the expression dies with the
#: last query that uses it.
ExpansionTemplate = tuple[tuple[tuple, tuple], ...]


@dataclass
class RepositoryStats:
    """The expansion-interning ledger."""

    expansion_hits: int = 0
    expansion_misses: int = 0

    def snapshot(self) -> dict[str, float]:
        return {
            "expansion_hits": float(self.expansion_hits),
            "expansion_misses": float(self.expansion_misses),
        }


@dataclass
class OptimizeOutcome:
    """What one optimizer invocation hands back to the engine."""

    plan: FactorizedPlan
    record: OptimizerRecord


class PlanRepository:
    """The optimizer entry point, plus the keyword-expansion intern
    table and the keyword-level fragments.

    One repository serves one (federation, config) pair and may be
    shared by any number of engines -- the sharded service hands every
    shard worker the same instance, because what it derives from the
    same federation is shard-independent.
    """

    #: Cap on each table (expansions; keywords with kept fragments),
    #: FIFO-evicted: eviction only costs a future re-derivation, never
    #: correctness.
    MAX_EXPANSIONS = 4096

    def __init__(self, federation: Federation,
                 config: ExecutionConfig) -> None:
        self.federation = federation
        self.config = config
        self.stats = RepositoryStats()
        self._expansions: dict[tuple[str, ...], ExpansionTemplate] = {}
        self._expansions_epoch = federation.stats_epoch
        #: keyword -> the fragments whose selections carry it alone;
        #: ``None`` -> those that carry no keyword.
        self._keyword_fragments: dict[object, set[SPJ]] = {}

    def publish_metrics(self, registry: MetricsRegistry) -> None:
        """Republish the ledger as ``repro_plan_repository_*``
        instruments.  Called from the collector of whichever service
        *owns* this repository (a fleet-shared one is published by the
        front door alone); absolute, hence idempotent."""
        registry.counter(
            "repro_plan_repository_hits_total",
            "plan-repository lookups served, per layer",
        ).set(self.stats.expansion_hits, layer="expansion")
        registry.counter(
            "repro_plan_repository_misses_total",
            "plan-repository lookups missed, per layer",
        ).set(self.stats.expansion_misses, layer="expansion")

    # -- expansion interning -------------------------------------------------

    @staticmethod
    def expansion_key(keywords: tuple[str, ...]) -> tuple[str, ...]:
        """A keyword query's expansion identity.

        Exactly what a fresh expansion depends on: the generator
        deduplicates keywords through a dict and iterates them sorted,
        so order and duplicates never matter -- but raw spelling does
        (``("Apple", "apple")`` builds a two-entry match product where
        ``("apple",)`` builds one), so unlike the answer cache's
        ``normalize_key`` this key must NOT case-fold: the intern cache
        guarantees byte-identical expansions, not merely equivalent
        answers.  Case-variant repeats still never re-execute -- the
        answer cache serves them at the front door."""
        return tuple(sorted(set(keywords)))

    def lookup_expansion(self, keywords: tuple[str, ...]
                         ) -> ExpansionTemplate | None:
        """The stored expansion of ``keywords``, if one was derived
        under the federation's current statistics epoch: loaded rows
        may match a keyword, so ``Federation.load`` voids the table."""
        epoch = self.federation.stats_epoch
        if epoch != self._expansions_epoch:
            self._expansions.clear()
            self._expansions_epoch = epoch
        template = self._expansions.get(self.expansion_key(keywords))
        if template is None:
            self.stats.expansion_misses += 1
        else:
            self.stats.expansion_hits += 1
        return template

    def store_expansion(self, keywords: tuple[str, ...],
                        template: ExpansionTemplate) -> None:
        self._expansions[self.expansion_key(keywords)] = template
        while len(self._expansions) > self.MAX_EXPANSIONS:
            self._expansions.pop(next(iter(self._expansions)))

    # -- the optimizer entry point -------------------------------------------

    def optimize(self, uqs: list[UserQuery], scope: str,
                 oracle: ReuseOracle | None,
                 cost_model: CostModel) -> OptimizeOutcome:
        """Optimize one batch group: driving streams, candidates, best
        plan (Algorithm 1), factorized plan."""
        started = wall_timer()
        applied_before = ops_applied()
        config = self.config
        sharing = config.shares_within_uq
        cqs = [cq for uq in uqs for cq in uq.cqs]
        streamable = {
            cq.cq_id: driving_stream_aliases(cq, self.federation, config)
            for cq in cqs
        }
        candidates = enumerate_candidates(
            cqs, self.federation, cost_model, config, sharing=sharing)
        result = BestPlanSearch(
            cqs=cqs,
            candidates=candidates,
            cost_model=cost_model,
            config=config,
            streamable=streamable,
            oracle=oracle,
        ).run()
        plan = factorize(result, cqs, cost_model, scope, sharing=sharing)
        self._keep_keyword_fragments(cqs)
        record = OptimizerRecord(
            candidate_count=result.searched_candidates + len(candidates),
            plans_explored=result.plans_explored,
            elapsed_wall=wall_timer() - started,
            batch_size=len(uqs),
            cqs_planned=len(cqs),
            factorize_ops=ops_applied() - applied_before,
        )
        return OptimizeOutcome(plan=plan, record=record)

    def _keep_keyword_fragments(self, cqs: list[ConjunctiveQuery]) -> None:
        """Keep every fragment the batch derived from its conjunctive
        queries whose selections carry at most one keyword: under that
        keyword, or under ``None`` when they carry none (join paths
        through the schema, which any query may derive again).
        Fragments of two or more keywords are specific to their keyword
        combination and die with its queries."""
        table = self._keyword_fragments
        for cq in cqs:
            for fragment in cq.expr.induced_fragments():
                selections = fragment.selections
                keyword = selections[0].value if selections else None
                if any(s.value != keyword for s in selections):
                    continue
                kept = table.get(keyword)
                if kept is None:
                    kept = table[keyword] = set()
                    while len(table) > self.MAX_EXPANSIONS:
                        table.pop(next(iter(table)))
                kept.add(fragment)
