"""The incremental plan repository: optimization work, derived once.

After PR 3 the *execution* core shares work across concurrent keyword
queries; this module makes the *optimizer* do the same.  Qunits (Nandi
& Jagadish) argues that database search should serve requests from
pre-derived query units rather than re-deriving structure per request,
and Mragyati (Sarda & Jain) identifies the keyword-to-structured-query
translation as exactly the cacheable step.  The
:class:`PlanRepository` applies both ideas to the Figure 3 pipeline:

* **Expansion interning** -- the candidate-network generator's
  keyword-set -> user-query expansion is derived once per distinct
  keyword set (order- and duplicate-free, spelling-exact); repeats are
  instantiated by renaming the template's conjunctive queries onto
  fresh query ids instead of re-enumerating join trees.
* **Template signatures** -- every conjunctive query carries a
  structural signature (:attr:`~repro.keyword.queries.ConjunctiveQuery.
  template_signature`): join topology, selections, and score weights up
  to alias renaming.  Signatures key every cache below.
* **Memoized candidate enumeration** -- the ``(S, S-map)`` candidate
  assignment of Section 5.1.1 per batch-template, and the (guaranteed
  non-empty) driving-stream alias sets per CQ template.
* **Memoized best-plan search** -- Algorithm 1's result, keyed on the
  batch template *plus a reuse fingerprint*: the
  :class:`~repro.optimizer.cost.ReuseOracle`'s ``tuples_already_read``
  makes plan choice state-dependent, so the fingerprint records the
  oracle's reading over every expression the search could cost.  Any
  mismatch falls back to a fresh search -- a stale plan is never
  served.
* **Delta factorization** -- under a sharing scope (ATC-FULL /
  ATC-CL), each batch is partitioned into *sharing groups*: connected
  components under "could share a factorized component" (a sound
  overapproximation of every way the greedy merge couples two CQs).
  Disjoint groups commute through the merge loop, so factorizing per
  group is exactly the whole-batch factorization -- and each group's
  sub-plan is retained per (scope, templates, input assignment).  A
  later batch whose templates overlap grafts the retained sub-plans
  and runs :func:`~repro.optimizer.factorize.factorize` only over the
  *delta* (the genuinely new groups); the QS manager's spec-identity
  graft makes the reused node ids land on the operators already in
  the plan graph.

Below the layers sits the *miss path* -- the uncached pipeline every
layer falls back to, and all there is for a batch of templates never
seen before.  It memoizes too, but on the objects the work is about
rather than in this repository, so those memos need no size policy and
no invalidation beyond the lifetime of their owner:

* the cardinality estimate of an expression -- on the interned
  ``SPJ``, one slot stamped with the federation's statistics epoch;
  void when the federation loads rows, gone with the expression;
* ``order_key``, ``induced`` fragments, canonical renaming and key --
  on the interned ``SPJ``, for as long as it lives;
* relation statistics -- on the ``Federation``, dropped by
  ``Federation.load``;
* per-CQ completions, base-relation preludes and oracle readings --
  on one ``BestPlanSearch``, gone when the search returns;
* the op table and each op's rank -- on one ``Factorization``, gone
  when ``factorize`` returns.

With those in place the uncached pipeline costs about what a repository
*hit* used to: ``benchmarks/results/BENCH_optimizer.json`` records the
optimizer wall with ``plan_cache`` on and off per cell, and under
ATC-FULL the two are now within noise of each other.

Correctness contract: answers must be identical with the repository on
or off.  Group-level hits replay a plan derived from a structurally
identical batch under an identical reuse fingerprint; fragment grafts
reuse component chains that compute exactly the same select-project-
join expressions over the same inputs.  The differential harness
(``tests/test_sharded_equivalence.py``) and the benchmark answer
digests pin this across every sharing mode and shard count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.clock import wall_timer
from repro.common.config import ExecutionConfig
from repro.data.database import Federation
from repro.keyword.queries import ConjunctiveQuery, UserQuery
from repro.optimizer.bestplan import BestPlanSearch
from repro.optimizer.candidates import (
    CandidateSet,
    InputCandidate,
    driving_stream_aliases,
    enumerate_candidates,
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
from repro.plan.expressions import SPJ
from repro.obs.instruments import MetricsRegistry
from repro.obs.records import OptimizerRecord

#: One cached expansion: (expr, score, matches) per conjunctive query,
#: in the generator's enumeration order (pre upper-bound sort) -- the
#: order that numbers the ``-cq{i}`` ids, so instantiating a template
#: reproduces a fresh expansion's identifiers exactly.
ExpansionTemplate = tuple[tuple[object, object, tuple], ...]

#: A symbolic node reference inside a cached plan: ("src"|"cmp", index).
_NodeRef = tuple[str, int]


@dataclass
class RepositoryStats:
    """The repository's cache ledger, by layer.

    ``expansion``  -- keyword-set -> user-query interning (generator);
    ``template``   -- per-CQ driving-stream alias sets;
    ``candidate``  -- per-batch candidate assignments;
    ``plan``       -- per-batch best-plan + factorization results;
    ``fragment``   -- per-CQ factorization fragments (delta grafts).
    """

    expansion_hits: int = 0
    expansion_misses: int = 0
    template_hits: int = 0
    template_misses: int = 0
    candidate_hits: int = 0
    candidate_misses: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    fragment_hits: int = 0
    fragment_misses: int = 0

    @property
    def hits(self) -> int:
        return (self.expansion_hits + self.template_hits
                + self.candidate_hits + self.plan_hits + self.fragment_hits)

    @property
    def misses(self) -> int:
        return (self.expansion_misses + self.template_misses
                + self.candidate_misses + self.plan_misses
                + self.fragment_misses)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float | None:
        """Hits over all lookups; ``None`` before any lookup."""
        if not self.lookups:
            return None
        return self.hits / self.lookups

    def snapshot(self) -> dict[str, float | None]:
        return {
            "expansion_hits": float(self.expansion_hits),
            "expansion_misses": float(self.expansion_misses),
            "template_hits": float(self.template_hits),
            "template_misses": float(self.template_misses),
            "candidate_hits": float(self.candidate_hits),
            "candidate_misses": float(self.candidate_misses),
            "plan_hits": float(self.plan_hits),
            "plan_misses": float(self.plan_misses),
            "fragment_hits": float(self.fragment_hits),
            "fragment_misses": float(self.fragment_misses),
            "hit_rate": self.hit_rate,
        }


@dataclass
class OptimizeOutcome:
    """What one optimizer invocation hands back to the engine."""

    plan: FactorizedPlan
    record: OptimizerRecord


@dataclass(frozen=True)
class _CandidateEntry:
    """A candidate assignment in label space (consumers as positions)."""

    exprs: tuple[SPJ, ...]
    pushdowns: tuple[tuple[SPJ, frozenset[int], float], ...]
    bases: tuple[tuple[SPJ, frozenset[int], float], ...]


@dataclass(frozen=True)
class _CompProto:
    """One m-join component in label space."""

    expr: SPJ
    children: tuple[_NodeRef, ...]
    probe_atoms: tuple[str, ...]
    support: tuple[int, ...]


@dataclass(frozen=True)
class _GroupPlanEntry:
    """A whole optimization group's plan in label space.

    Sources and components are stored symbolically: node ids are
    rebuilt at instantiation through the same
    :func:`~repro.optimizer.factorize.source_node_id` /
    :func:`~repro.optimizer.factorize.component_node_id` construction a
    fresh factorization would use, so a plan cached under one set of
    query ids lands on identical node ids when replayed under the same
    sharing scope -- and on correctly relabeled ids when the scope is a
    per-query one (ATC-CQ / ATC-UQ).
    """

    exprs: tuple[SPJ, ...]
    candidate_count: int
    #: (owner, expr): owner is None for the sharing scope, or the
    #: position of the owning conjunctive query.
    sources: tuple[tuple[int | None, SPJ], ...]
    components: tuple[_CompProto, ...]
    cq_final: tuple[tuple[int, _NodeRef], ...]
    cq_stream_sources: tuple[tuple[int, tuple[_NodeRef, ...]], ...]
    cq_probe_atoms: tuple[tuple[int, tuple[str, ...]], ...]


@dataclass(frozen=True)
class _GroupFragment:
    """One sharing group's factorized sub-plan, retained for delta
    grafting.

    A *sharing group* is a connected component of the batch's CQs
    under "streams a common input expression".  Disjoint groups never
    share a region, so the greedy factorization's op choices commute
    across them -- factorizing per group and unioning the sub-plans is
    *exactly* the whole-batch factorization, which is what makes a
    cached group replay byte-identical to a fresh run.  Node ids embed
    the sharing scope, so an entry is valid only under the scope it
    was derived in; only the CQ-keyed maps are rebound on replay.
    """

    exprs: tuple[SPJ, ...]
    sources: tuple[SourceSpec, ...]
    #: (comp_id, expr, stream_children, probe_atoms, support positions).
    components: tuple[
        tuple[str, SPJ, tuple[str, ...], tuple[str, ...], tuple[int, ...]],
        ...]
    cq_final: tuple[tuple[int, str], ...]
    cq_stream_sources: tuple[tuple[int, tuple[str, ...]], ...]
    cq_probe_atoms: tuple[tuple[int, tuple[str, ...]], ...]


class PlanRepository:
    """Shared, incremental memory of the intake -> optimize pipeline.

    One repository serves one (federation, config) pair and may be
    shared by any number of engines -- the sharded service hands every
    shard worker the same instance, because plans derived from the same
    federation are shard-independent.  With ``config.plan_cache`` off
    every call degenerates to the uncached pipeline.
    """

    #: Entry caps per cache, FIFO-evicted.  A long-running service
    #: under a state-reusing mode keys best-plan entries on reuse
    #: fingerprints that may never recur, so without a bound the
    #: repository would grow linearly with batches served (fleet-wide:
    #: shards share one instance).  Eviction only costs a future miss,
    #: never correctness.
    MAX_EXPANSIONS = 4096
    MAX_TEMPLATES = 16384
    MAX_CANDIDATES = 512
    MAX_PLANS = 512
    MAX_FRAGMENTS = 8192
    MAX_INTERACTIONS = 16384

    def __init__(self, federation: Federation,
                 config: ExecutionConfig) -> None:
        self.federation = federation
        self.config = config
        self.enabled = config.plan_cache
        self.stats = RepositoryStats()
        self._expansions: dict[tuple[str, ...], ExpansionTemplate] = {}
        self._driving: dict[str, frozenset[str]] = {}
        self._candidates: dict[tuple, _CandidateEntry] = {}
        self._plans: dict[tuple, _GroupPlanEntry] = {}
        #: (scope, per-CQ (template signature, streamed exprs, probes))
        #: -> sharing-group sub-plan.  Keyed by assignment too: the
        #: best plan for one template legitimately varies with batch
        #: composition and reuse state, and each variant's
        #: factorization is independently reusable.
        self._fragments: dict[tuple, _GroupFragment] = {}
        #: (template signature, assignment) -> interaction keys, for
        #: the sharing-group partition.
        self._interaction_memo: dict[tuple, set] = {}

    def publish_metrics(self, registry: MetricsRegistry) -> None:
        """Republish the per-layer ledger as
        ``repro_plan_repository_*`` instruments.  Called from the
        collector of whichever service *owns* this repository (a
        fleet-shared one is published by the front door alone);
        absolute, hence idempotent."""
        hits = registry.counter("repro_plan_repository_hits_total",
                                "plan-repository lookups served, per layer")
        misses = registry.counter(
            "repro_plan_repository_misses_total",
            "plan-repository lookups missed, per layer")
        for layer in ("expansion", "template", "candidate", "plan",
                      "fragment"):
            hits.set(getattr(self.stats, f"{layer}_hits"), layer=layer)
            misses.set(getattr(self.stats, f"{layer}_misses"), layer=layer)

    @staticmethod
    def _bounded_store(cache: dict, key, value, cap: int) -> None:
        """Insert ``key`` -> ``value``, FIFO-evicting past ``cap``."""
        cache[key] = value
        while len(cache) > cap:
            cache.pop(next(iter(cache)))

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
        if not self.enabled:
            return None
        template = self._expansions.get(self.expansion_key(keywords))
        if template is None:
            self.stats.expansion_misses += 1
        else:
            self.stats.expansion_hits += 1
        return template

    def store_expansion(self, keywords: tuple[str, ...],
                        template: ExpansionTemplate) -> None:
        if self.enabled:
            self._bounded_store(self._expansions,
                                self.expansion_key(keywords), template,
                                self.MAX_EXPANSIONS)

    # -- per-template memos --------------------------------------------------

    def driving_streams(self, cq: ConjunctiveQuery,
                        count: list[int] | None = None) -> set[str]:
        """Memoized :func:`~repro.optimizer.candidates.
        driving_stream_aliases` per CQ template.  ``count`` (mutable
        ``[hits, misses]``) lets one optimizer invocation accumulate
        its own ledger on top of the global one."""
        if not self.enabled:
            return driving_stream_aliases(cq, self.federation, self.config)
        sig = cq.template_signature
        cached = self._driving.get(sig)
        if cached is None:
            cached = frozenset(
                driving_stream_aliases(cq, self.federation, self.config))
            self._bounded_store(self._driving, sig, cached,
                                self.MAX_TEMPLATES)
            self.stats.template_misses += 1
            if count is not None:
                count[1] += 1
        else:
            self.stats.template_hits += 1
            if count is not None:
                count[0] += 1
        return set(cached)

    # -- the optimizer entry point -------------------------------------------

    def optimize(self, uqs: list[UserQuery], scope: str,
                 oracle: ReuseOracle | None,
                 cost_model: CostModel) -> OptimizeOutcome:
        """Optimize one batch group: candidates, best plan, factorized
        plan -- each layer served from the repository when a safe match
        exists, recomputed (and retained) otherwise."""
        started = wall_timer()
        config = self.config
        sharing = config.shares_within_uq
        shares_across = config.shares_across_uqs
        cqs = [cq for uq in uqs for cq in uq.cqs]
        ledger = [0, 0]  # [hits, misses] within this invocation
        delta_grafts = 0

        streamable = {
            cq.cq_id: self.driving_streams(cq, count=ledger) for cq in cqs
        }

        if not self.enabled:
            candidate_set = enumerate_candidates(
                cqs, self.federation, cost_model, config, sharing=sharing)
            plan, candidate_count, explored = self._search_and_factorize(
                cqs, candidate_set, streamable, oracle, cost_model,
                scope, sharing)
            return self._finish(started, uqs, plan, candidate_count,
                                explored, ledger, delta_grafts)

        # Signature-equal CQs are interchangeable throughout the
        # optimizer (equal expressions, symmetric candidate sets), so
        # every cache below keys and stores in *canonical batch order*
        # -- sorted by template signature -- and two batches that are
        # permutations of each other share entries.
        canonical = sorted(cqs, key=lambda cq: cq.template_signature)
        sig_tuple = tuple(cq.template_signature for cq in canonical)

        candidate_set = self._cached_candidates(
            sig_tuple, canonical, cqs, cost_model, sharing, ledger)

        fingerprint = self._fingerprint(candidate_set, cqs, streamable,
                                        oracle)
        plan_key = (sig_tuple, scope if shares_across else None, fingerprint)
        entry = self._plans.get(plan_key)
        if entry is not None and _exprs_match(entry.exprs, canonical):
            plan = _instantiate_group_plan(entry, canonical, scope, sharing)
            candidate_count, explored = entry.candidate_count, 0
            self.stats.plan_hits += 1
            ledger[0] += 1
        else:
            self.stats.plan_misses += 1
            ledger[1] += 1
            if shares_across:
                plan, candidate_count, explored, delta_grafts = \
                    self._search_with_fragments(
                        cqs, candidate_set, streamable, oracle, cost_model,
                        scope, sharing, ledger)
            else:
                plan, candidate_count, explored = self._search_and_factorize(
                    cqs, candidate_set, streamable, oracle, cost_model,
                    scope, sharing)
            captured = _capture_group_plan(canonical, plan, scope,
                                           candidate_count)
            if captured is not None:
                self._bounded_store(self._plans, plan_key, captured,
                                    self.MAX_PLANS)
        return self._finish(started, uqs, plan, candidate_count, explored,
                            ledger, delta_grafts)

    # -- layers --------------------------------------------------------------

    def _cached_candidates(self, sig_tuple: tuple,
                           canonical: list[ConjunctiveQuery],
                           cqs: list[ConjunctiveQuery],
                           cost_model: CostModel, sharing: bool,
                           ledger: list[int]) -> CandidateSet:
        entry = self._candidates.get(sig_tuple)
        if entry is not None and _exprs_match(entry.exprs, canonical):
            self.stats.candidate_hits += 1
            ledger[0] += 1
            return _instantiate_candidates(entry, canonical)
        self.stats.candidate_misses += 1
        ledger[1] += 1
        candidate_set = enumerate_candidates(
            cqs, self.federation, cost_model, self.config, sharing=sharing)
        self._bounded_store(
            self._candidates, sig_tuple,
            _capture_candidates(candidate_set, canonical),
            self.MAX_CANDIDATES)
        return candidate_set

    def _fingerprint(self, candidate_set: CandidateSet,
                     cqs: list[ConjunctiveQuery],
                     streamable: dict[str, set[str]],
                     oracle: ReuseOracle | None) -> tuple:
        """The oracle's readings over every expression the best-plan
        search could stream -- push-down candidates plus each CQ's
        driving base relations.  Cost estimation consults the oracle
        for exactly these, so an equal fingerprint means the search
        would reproduce the cached result; anything else re-optimizes.
        Sorted by canonical key, so the fingerprint is batch-order
        independent (within a batch, canonical keys identify
        expressions uniquely: aliases are relation names).
        """
        if oracle is None:
            return ()
        seen: dict[SPJ, None] = {}
        for candidate in candidate_set.pushdowns:
            seen.setdefault(candidate.expr)
        for cq in cqs:
            for alias in sorted(streamable[cq.cq_id]):
                seen.setdefault(cq.expr.induced({alias}))
        return tuple(sorted(
            (expr.canonical_key, oracle.tuples_already_read(expr))
            for expr in seen
        ))

    def _search_and_factorize(self, cqs, candidate_set, streamable, oracle,
                              cost_model, scope, sharing):
        result = BestPlanSearch(
            cqs=cqs,
            candidates=candidate_set,
            cost_model=cost_model,
            config=self.config,
            streamable=streamable,
            probes={},
            oracle=oracle,
        ).run()
        plan = factorize(result, cqs, cost_model, scope, sharing=sharing)
        candidate_count = (result.searched_candidates
                           + len(candidate_set.pushdowns))
        return plan, candidate_count, result.plans_explored

    def _search_with_fragments(self, cqs, candidate_set, streamable, oracle,
                               cost_model, scope, sharing,
                               ledger) -> tuple[FactorizedPlan, int, int, int]:
        """Best-plan search, then factorization by delta.

        The batch's CQs are partitioned into *sharing groups*:
        connected components under "streams a common input
        expression".  Disjoint groups never touch a common region, so
        the greedy factorization's merge choices commute across them
        and factorizing group by group reproduces the whole-batch
        factorization exactly.  Each group's sub-plan is cached under
        (scope, the group's templates + input assignment); a later
        batch containing the same group -- the common case under a
        Zipf template stream -- grafts the retained sub-plan and runs
        :func:`factorize` only over the genuinely new groups.
        """
        result = BestPlanSearch(
            cqs=cqs,
            candidates=candidate_set,
            cost_model=cost_model,
            config=self.config,
            streamable=streamable,
            probes={},
            oracle=oracle,
        ).run()
        candidate_count = (result.searched_candidates
                           + len(candidate_set.pushdowns))

        assignments: dict[str, frozenset[SPJ]] = {
            cq.cq_id: frozenset(
                expr for expr, consumers in result.streams.items()
                if cq.cq_id in consumers
            ) for cq in cqs
        }
        plan = FactorizedPlan(scope=scope)
        grafted = 0
        groups = _sharing_groups(cqs, assignments, result.probes,
                                 memo=self._interaction_memo)
        while len(self._interaction_memo) > self.MAX_INTERACTIONS:
            self._interaction_memo.pop(next(iter(self._interaction_memo)))
        for group in groups:
            # Canonical member order: signature-equal CQs carry equal
            # expressions and symmetric assignments, so sorting makes
            # the key (and the graft correspondence) batch-order free.
            canonical = sorted(group,
                               key=lambda cq: cq.template_signature)
            key = (scope, tuple(
                (cq.template_signature, assignments[cq.cq_id],
                 tuple(sorted(result.probes.get(cq.cq_id, ()))))
                for cq in canonical
            ))
            fragment = self._fragments.get(key)
            if fragment is not None and _exprs_match(fragment.exprs,
                                                    canonical):
                _graft_group(plan, fragment, canonical)
                grafted += len(group)
                self.stats.fragment_hits += 1
                ledger[0] += 1
            else:
                sub_plan = factorize(result, group, cost_model, scope,
                                     sharing=sharing)
                _merge_plans(plan, sub_plan)
                captured = _capture_group(sub_plan, canonical)
                if captured is not None:
                    self._bounded_store(self._fragments, key, captured,
                                        self.MAX_FRAGMENTS)
                self.stats.fragment_misses += 1
                ledger[1] += 1
        return plan, candidate_count, result.plans_explored, grafted

    def _finish(self, started: float, uqs: list[UserQuery],
                plan: FactorizedPlan, candidate_count: int, explored: int,
                ledger: list[int], delta_grafts: int) -> OptimizeOutcome:
        wall = wall_timer() - started
        record = OptimizerRecord(
            candidate_count=candidate_count,
            plans_explored=explored,
            elapsed_wall=wall,
            batch_size=len(uqs),
            cache_hits=ledger[0],
            cache_misses=ledger[1],
            delta_grafts=delta_grafts,
        )
        return OptimizeOutcome(plan=plan, record=record)


# -- label-space conversion helpers ------------------------------------------


def _exprs_match(exprs: tuple[SPJ, ...], cqs: list[ConjunctiveQuery]) -> bool:
    """Signature collisions must never relabel a structurally different
    batch: a cached entry applies only when every position's expression
    is *literally* equal (templates share interned expression objects,
    so this is usually an identity check)."""
    if len(exprs) != len(cqs):
        return False
    return all(cached is cq.expr or cached == cq.expr
               for cached, cq in zip(exprs, cqs))


def _capture_candidates(candidate_set: CandidateSet,
                        cqs: list[ConjunctiveQuery]) -> _CandidateEntry:
    index_of = {cq.cq_id: i for i, cq in enumerate(cqs)}

    def to_label(candidates: list[InputCandidate]):
        return tuple(
            (c.expr,
             frozenset(index_of[cq_id] for cq_id in c.consumers),
             c.est_cardinality)
            for c in candidates
        )

    return _CandidateEntry(
        exprs=tuple(cq.expr for cq in cqs),
        pushdowns=to_label(candidate_set.pushdowns),
        bases=to_label(candidate_set.bases),
    )


def _instantiate_candidates(entry: _CandidateEntry,
                            cqs: list[ConjunctiveQuery]) -> CandidateSet:
    def to_concrete(rows, is_base: bool) -> list[InputCandidate]:
        return [
            InputCandidate(
                expr,
                frozenset(cqs[i].cq_id for i in consumers),
                is_base=is_base,
                est_cardinality=card,
            )
            for expr, consumers, card in rows
        ]

    return CandidateSet(
        pushdowns=to_concrete(entry.pushdowns, is_base=False),
        bases=to_concrete(entry.bases, is_base=True),
        # The AND-OR memo is a per-enumeration diagnostic; cached
        # instantiations do not rebuild it.
        andor=None,
    )


def _capture_group_plan(cqs: list[ConjunctiveQuery], plan: FactorizedPlan,
                        scope: str, candidate_count: int
                        ) -> _GroupPlanEntry | None:
    """Convert a concrete plan to label space; ``None`` when any node
    references an owner outside this group (never expected -- a safety
    valve, not a code path)."""
    index_of = {cq.cq_id: i for i, cq in enumerate(cqs)}
    refs: dict[str, _NodeRef] = {}
    sources: list[tuple[int | None, SPJ]] = []
    for source_id, spec in plan.sources.items():
        owner = source_id.split(":", 2)[1]
        if owner == scope:
            token: int | None = None
        else:
            token = index_of.get(owner)
            if token is None:
                return None
        refs[source_id] = ("src", len(sources))
        sources.append((token, spec.expr))
    components: list[_CompProto] = []
    for comp_id, spec in plan.components.items():
        children = []
        for child_id in spec.stream_children:
            ref = refs.get(child_id)
            if ref is None:
                return None
            children.append(ref)
        support = tuple(sorted(
            index_of[cq_id] for cq_id in spec.cqs if cq_id in index_of))
        if len(support) != len(spec.cqs):
            return None
        refs[comp_id] = ("cmp", len(components))
        components.append(_CompProto(
            expr=spec.expr,
            children=tuple(children),
            probe_atoms=spec.probe_atoms,
            support=support,
        ))
    try:
        cq_final = tuple(
            (index_of[cq_id], refs[node_id])
            for cq_id, node_id in plan.cq_final.items()
        )
        cq_stream_sources = tuple(
            (index_of[cq_id], tuple(refs[node_id] for node_id in node_ids))
            for cq_id, node_ids in plan.cq_stream_sources.items()
        )
        cq_probe_atoms = tuple(
            (index_of[cq_id], atoms)
            for cq_id, atoms in plan.cq_probe_atoms.items()
        )
    except KeyError:
        return None
    return _GroupPlanEntry(
        exprs=tuple(cq.expr for cq in cqs),
        candidate_count=candidate_count,
        sources=tuple(sources),
        components=tuple(components),
        cq_final=cq_final,
        cq_stream_sources=cq_stream_sources,
        cq_probe_atoms=cq_probe_atoms,
    )


def _instantiate_group_plan(entry: _GroupPlanEntry,
                            cqs: list[ConjunctiveQuery], scope: str,
                            sharing: bool) -> FactorizedPlan:
    """Replay a label-space plan under concrete query ids.

    Node ids are rebuilt through the same digest construction a fresh
    factorization uses, so under a sharing scope they are bit-identical
    to the cached originals (the graft lands on existing operators) and
    under per-query scopes they carry the new query's labels.
    """
    plan = FactorizedPlan(scope=scope)
    source_ids: list[str] = []
    component_ids: list[str] = []

    def resolve(ref: _NodeRef) -> str:
        kind, index = ref
        return source_ids[index] if kind == "src" else component_ids[index]

    for token, expr in entry.sources:
        owner = scope if token is None else cqs[token].cq_id
        source_id = source_node_id(owner, expr)
        plan.sources[source_id] = SourceSpec(source_id, expr)
        source_ids.append(source_id)
    for proto in entry.components:
        children = tuple(sorted({resolve(ref) for ref in proto.children}))
        support = sorted(cqs[i].cq_id for i in proto.support)
        owner = scope if sharing else f"{scope}:{support[0]}"
        comp_id = component_node_id(owner, proto.expr, children,
                                    proto.probe_atoms)
        plan.components[comp_id] = ComponentSpec(
            comp_id=comp_id,
            expr=proto.expr,
            stream_children=children,
            probe_atoms=proto.probe_atoms,
            cqs=set(support),
        )
        component_ids.append(comp_id)
    for index, ref in entry.cq_final:
        plan.cq_final[cqs[index].cq_id] = resolve(ref)
    for index, node_refs in entry.cq_stream_sources:
        plan.cq_stream_sources[cqs[index].cq_id] = tuple(sorted(
            resolve(ref) for ref in node_refs))
    for index, atoms in entry.cq_probe_atoms:
        plan.cq_probe_atoms[cqs[index].cq_id] = atoms
    return plan


# -- sharing-group fragment helpers ------------------------------------------


def _interaction_keys(cq: ConjunctiveQuery, stream_exprs: frozenset[SPJ],
                      probe_atoms: tuple[str, ...]) -> set[tuple]:
    """Every *potential shared component* this CQ could contribute.

    Factorization couples two CQs only through an op with merged
    support or a colliding (content-addressed) component id; either
    way the shared structure's leaves are inputs common to both CQs --
    stream expressions by value, probe atoms by alias -- over which
    both induce the *same* expression.  Enumerating every connected
    input-block subset (with its induced expression) therefore
    overapproximates all interaction: CQs sharing none of these keys
    can never influence each other's factorization.
    """
    blocks: list[tuple[tuple, frozenset[str]]] = []
    for expr in stream_exprs:
        blocks.append((("s", expr), frozenset(expr.aliases)))
    for alias in probe_atoms:
        blocks.append((("p", alias), frozenset((alias,))))
    adjacency: dict[int, set[int]] = {i: set() for i in range(len(blocks))}
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            left, right = blocks[i][1], blocks[j][1]
            if any((p.left_alias in left and p.right_alias in right)
                   or (p.right_alias in left and p.left_alias in right)
                   for p in cq.expr.joins):
                adjacency[i].add(j)
                adjacency[j].add(i)
    stream_count = len(stream_exprs)
    keys: set[tuple] = set()
    seen: set[frozenset[int]] = set()
    frontier = [frozenset((i,)) for i in range(len(blocks))]
    seen.update(frontier)
    while frontier:
        subset = frontier.pop()
        reachable: set[int] = set()
        for i in subset:
            reachable.update(adjacency[i])
        for i in reachable - subset:
            grown = subset | {i}
            if grown in seen:
                continue
            seen.add(grown)
            frontier.append(grown)
            if not any(j < stream_count for j in grown):
                # Probe-only subsets never form a component: every
                # region traces back to at least one stream leaf.
                continue
            aliases = frozenset().union(*(blocks[j][1] for j in grown))
            keys.add((
                frozenset(blocks[j][0] for j in grown),
                cq.expr.induced(aliases),
            ))
    return keys


def _sharing_groups(cqs: list[ConjunctiveQuery],
                    assignments: dict[str, frozenset[SPJ]],
                    probes: dict[str, tuple[str, ...]],
                    memo: dict | None = None
                    ) -> list[list[ConjunctiveQuery]]:
    """Partition a batch into factorization-independent groups.

    Connected components under "shares a potential component"
    (:func:`_interaction_keys`); disjoint groups commute through the
    greedy merge loop, so per-group factorization is exact.  Groups
    are returned with members in batch order, ordered by first member.
    ``memo`` caches each (template, assignment)'s interaction keys
    across batches.
    """
    parent = list(range(len(cqs)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[tuple, int] = {}
    for i, cq in enumerate(cqs):
        probe_atoms = probes.get(cq.cq_id, ())
        keys = None
        memo_key = None
        if memo is not None:
            memo_key = (cq.template_signature, assignments[cq.cq_id],
                        probe_atoms)
            keys = memo.get(memo_key)
        if keys is None:
            keys = _interaction_keys(cq, assignments[cq.cq_id], probe_atoms)
            if memo is not None:
                memo[memo_key] = keys
        for key in keys:
            j = owner.setdefault(key, i)
            if j != i:
                parent[find(i)] = find(j)
    groups: dict[int, list[ConjunctiveQuery]] = {}
    for i, cq in enumerate(cqs):
        groups.setdefault(find(i), []).append(cq)
    return [groups[root] for root in sorted(groups)]


def _capture_group(sub_plan: FactorizedPlan,
                   group: list[ConjunctiveQuery]) -> _GroupFragment | None:
    """Convert one sharing group's freshly factorized sub-plan into its
    reusable form (CQ ids replaced by group positions)."""
    index_of = {cq.cq_id: i for i, cq in enumerate(group)}
    components = []
    for comp_id, spec in sub_plan.components.items():
        support = tuple(sorted(
            index_of[cq_id] for cq_id in spec.cqs if cq_id in index_of))
        if len(support) != len(spec.cqs):
            return None
        components.append((comp_id, spec.expr, spec.stream_children,
                           spec.probe_atoms, support))
    try:
        return _GroupFragment(
            exprs=tuple(cq.expr for cq in group),
            sources=tuple(sub_plan.sources.values()),
            components=tuple(components),
            cq_final=tuple(
                (index_of[cq_id], node_id)
                for cq_id, node_id in sub_plan.cq_final.items()),
            cq_stream_sources=tuple(
                (index_of[cq_id], node_ids)
                for cq_id, node_ids in sub_plan.cq_stream_sources.items()),
            cq_probe_atoms=tuple(
                (index_of[cq_id], atoms)
                for cq_id, atoms in sub_plan.cq_probe_atoms.items()),
        )
    except KeyError:
        return None


def _graft_group(plan: FactorizedPlan, fragment: _GroupFragment,
                 group: list[ConjunctiveQuery]) -> None:
    """Replay a cached sharing-group sub-plan under fresh CQ ids.

    Node ids embed only the (stable) sharing scope, so they are reused
    verbatim -- which is exactly what lands the graft on the operators
    already in the plan graph; only the CQ-keyed maps are rebound.
    """
    for spec in fragment.sources:
        plan.sources.setdefault(spec.source_id, spec)
    for comp_id, expr, stream_children, probe_atoms, support in \
            fragment.components:
        plan.components[comp_id] = ComponentSpec(
            comp_id=comp_id,
            expr=expr,
            stream_children=stream_children,
            probe_atoms=probe_atoms,
            cqs={group[i].cq_id for i in support},
        )
    for index, node_id in fragment.cq_final:
        plan.cq_final[group[index].cq_id] = node_id
    for index, node_ids in fragment.cq_stream_sources:
        plan.cq_stream_sources[group[index].cq_id] = node_ids
    for index, atoms in fragment.cq_probe_atoms:
        plan.cq_probe_atoms[group[index].cq_id] = atoms


def _merge_plans(plan: FactorizedPlan, other: FactorizedPlan) -> None:
    """Fold a delta factorization into the grafted plan.  Node ids are
    content digests, so an id collision means an identical spec; the
    only reconciliation is unioning component consumer sets."""
    for source_id, spec in other.sources.items():
        plan.sources.setdefault(source_id, spec)
    for comp_id, spec in other.components.items():
        existing = plan.components.get(comp_id)
        if existing is None:
            plan.components[comp_id] = spec
        else:
            existing.cqs.update(spec.cqs)
    plan.cq_final.update(other.cq_final)
    plan.cq_stream_sources.update(other.cq_stream_sources)
    plan.cq_probe_atoms.update(other.cq_probe_atoms)
