"""Algorithm 1: cost-based search over candidate input assignments.

``BestPlan`` (Section 5.1.2) performs memoized top-down search in the
Volcano style: it repeatedly commits one candidate subexpression ``J``
to the partial assignment ``A`` and recurses on an adjusted candidate
set ``S'`` in which every candidate ``J'`` that *overlaps* ``J`` (shares
a relation) loses the consumers ``J`` just claimed -- so no query ever
streams the same base relation through two inputs.  When ``S`` is
exhausted, the partial assignment is completed into a full valid plan
(uncovered streamable atoms fall back to base-relation inputs,
score-less atoms to random-access probes) and costed.

Two notes on fidelity:

* The paper's line 14 reads as if non-overlapping candidates were
  dropped from ``S'``; that cannot be intended (it would discard
  independent candidates), so we implement the evident semantics:
  non-overlapping candidates survive unchanged, overlapping ones have
  their consumer sets reduced and are dropped only when empty.
* The paper memoizes on ``A`` alone ("if there exists a cached plan P'
  for inputs A, return it").  We memoize on ``A`` with its consumer
  sets (exact), but bound the state space structurally: ordering only
  matters among candidates that *overlap* each other, so the searched
  candidates are decomposed into connected components of the overlap
  graph and each component is searched independently -- the exact
  search inside each component, a product across components.  Components
  are capped at :data:`MAX_SEARCH` members (overflow candidates are
  applied greedily at completion), which keeps the worst case at
  ``O(k * 2^MAX_SEARCH)`` while preserving the exponential-in-candidates
  growth the paper observes (Figure 11).

The search is exponential in the number of candidates -- that is
Figure 11's observed behaviour -- so the searched set is capped
(:data:`MAX_CANDIDATES` in all, :data:`MAX_SEARCH` per component);
overflow candidates are applied greedily at completion time instead of
being branched on.

What a leaf costs.  Completing an assignment is a per-CQ affair --
which inputs and probes a CQ ends up with depends only on the
committed candidates that list it as a consumer -- so one search
memoizes, in plain dicts that die with the :class:`BestPlanSearch`:

* per ``(CQ, committed candidates serving it)``: the CQ's completion,
  carrying its pure addends (the depth it needs each input read to,
  the random-access source key of each probed atom);
* per CQ: its base-relation prelude ``(alias, induced base input,
  selective, cardinality)`` and its join cost;
* per input: the reuse oracle's reading.

A conflict component can only change the completions of the CQs its
candidates serve; the others are settled once per component.  A leaf
then looks up the served CQs' completions and adds the memoized
addends up *in the order* :meth:`CostModel.plan_cost` *would meet them
in the assembled assignment*.  That order is not negotiable: leaves
tie exactly in real arithmetic all the time (symmetric candidates,
depths clamped to the same floor), the last bit of that particular
sum is what decides between them, and a sum over the component's own
addends -- the obvious next step -- rounds differently and picks
different, equally cheap plans.  The whole-batch assignment itself is
assembled once per search, for the plan that won.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.config import ExecutionConfig
from repro.keyword.queries import ConjunctiveQuery
from repro.optimizer.candidates import InputCandidate
from repro.optimizer.cost import CostModel, ReuseOracle, probe_source_key
from repro.plan.expressions import SPJ

#: One (expression, consumer-set) pair inside the search.
_Entry = tuple[SPJ, frozenset[str]]

#: Cap on the candidates one search considers, most useful first; the
#: rest are applied greedily at completion.
MAX_CANDIDATES = 24
#: Cap on the members of one conflict component that are branched on.
MAX_SEARCH = 8


@dataclass
class BestPlanResult:
    """A complete valid input assignment ``(I, I-map)`` with its cost."""

    streams: dict[SPJ, frozenset[str]]
    probes: dict[str, tuple[str, ...]]
    cost: float
    plans_explored: int = 0
    searched_candidates: int = 0

    def validate(self, cqs: list[ConjunctiveQuery],
                 streamable: dict[str, set[str]]) -> None:
        """Definition 1 validity: per CQ, every streamable alias is
        covered by exactly one input; probes cover the rest."""
        for cq in cqs:
            covered: list[str] = []
            for expr, consumers in self.streams.items():
                if cq.cq_id not in consumers:
                    continue
                if cq.expr.induced(expr.aliases) != expr:
                    raise AssertionError(
                        f"{cq.cq_id}: input {expr.describe()} is not a "
                        f"subexpression of the query"
                    )
                covered.extend(expr.aliases)
            if len(covered) != len(set(covered)):
                raise AssertionError(
                    f"{cq.cq_id}: overlapping inputs cover {sorted(covered)}"
                )
            expected = streamable[cq.cq_id]
            probed = set(self.probes.get(cq.cq_id, ()))
            all_covered = set(covered) | probed
            if all_covered != set(cq.expr.aliases):
                raise AssertionError(
                    f"{cq.cq_id}: inputs+probes cover {sorted(all_covered)} "
                    f"!= atoms {sorted(cq.expr.aliases)}"
                )
            uncovered_streamable = expected - set(covered)
            if uncovered_streamable - probed:
                raise AssertionError(
                    f"{cq.cq_id}: streamable aliases "
                    f"{sorted(uncovered_streamable - probed)} unassigned"
                )


@dataclass(frozen=True)
class _Completion:
    """One CQ's share of a completed assignment -- a function of the
    committed candidates that serve the CQ, nothing else in the batch."""

    #: Committed, then automatic candidates, in the order applied.
    picked: tuple[SPJ, ...]
    #: Base-relation inputs for the streamable atoms left uncovered.
    bases: tuple[SPJ, ...]
    #: Atoms left to random-access probes.
    probes: tuple[str, ...]
    #: Every input above with the depth this CQ needs it read to.
    reads: tuple[tuple[SPJ, float], ...]
    #: The random-access source each probed atom resolves through.
    probe_keys: tuple[tuple, ...]


@dataclass
class BestPlanSearch:
    """One invocation of Algorithm 1 over a batch of CQs (the module
    docstring says what is memoized per search and why a leaf's sum
    keeps ``plan_cost``'s order)."""

    cqs: list[ConjunctiveQuery]
    #: Most useful first, as :func:`~repro.optimizer.candidates.
    #: enumerate_candidates` orders them.
    candidates: list[InputCandidate]
    cost_model: CostModel
    config: ExecutionConfig
    streamable: dict[str, set[str]]
    oracle: ReuseOracle | None = None
    _memo: dict[frozenset[_Entry], tuple[float, tuple[_Entry, ...]]] = \
        field(default_factory=dict)
    _explored: int = 0

    def run(self) -> BestPlanResult:
        self._cq_by_id = {cq.cq_id: cq for cq in self.cqs}
        cq_ids = frozenset(self._cq_by_id)
        usable = [c for c in self.candidates if c.consumers & cq_ids]
        usable, spill = usable[:MAX_CANDIDATES], usable[MAX_CANDIDATES:]
        searched_components, auto = self._partition(usable)
        self._auto = auto + spill
        #: Per CQ, the automatic candidates that list it, in order.
        self._auto_for: dict[str, list[InputCandidate]] = {
            cq_id: [] for cq_id in self._cq_by_id
        }
        for candidate in self._auto:
            for cq_id in candidate.consumers & cq_ids:
                self._auto_for[cq_id].append(candidate)
        self._auto_unread = {c.expr: 0.0 for c in self._auto}
        self._preludes: dict[str, tuple] = {}
        self._completion_memo: dict[tuple[str, tuple[SPJ, ...]],
                                _Completion] = {}
        self._already: dict[SPJ, int] = {}
        self._join_costs = [self.cost_model.join_cpu_cost(cq)
                            for cq in self.cqs]
        chosen: tuple[_Entry, ...] = ()
        searched_count = 0
        for component in searched_components:
            searched_count += len(component)
            initial = tuple(
                (c.expr, c.consumers & cq_ids) for c in component
            )
            self._memo.clear()
            self._settle(frozenset().union(
                *(consumers for _expr, consumers in initial)))
            _cost, component_chosen = self._search(initial, ())
            chosen = chosen + component_chosen
        if not searched_components:
            self._explored += 1
        self._settle(cq_ids)
        done = self._completions_for(chosen)
        streams, probes = self._assemble(chosen, done)
        result = BestPlanResult(
            streams=streams,
            probes=probes,
            cost=self._cost(chosen, done),
            plans_explored=self._explored,
            searched_candidates=searched_count,
        )
        result.validate(self.cqs, self.streamable)
        return result

    # -- candidate partitioning -------------------------------------------------

    def _partition(self, usable: list[InputCandidate]
                   ) -> tuple[list[list[InputCandidate]],
                              list[InputCandidate]]:
        """Split candidates into overlap components worth branching on.

        Ordering only matters among candidates that overlap each other
        with shared consumers (the subtraction of Algorithm 1 line 14);
        independent candidates are always used.  Each component is
        capped at :data:`MAX_SEARCH` members by utility -- the rest are
        applied greedily at completion time."""
        conflicted: list[InputCandidate] = []
        independent: list[InputCandidate] = []
        for candidate in usable:
            if any(candidate is not other and candidate.overlaps(other)
                   and (candidate.consumers & other.consumers)
                   for other in usable):
                conflicted.append(candidate)
            else:
                independent.append(candidate)
        # Connected components of the conflict graph.
        unassigned = list(conflicted)
        components: list[list[InputCandidate]] = []
        while unassigned:
            seed = unassigned.pop(0)
            component = [seed]
            changed = True
            while changed:
                changed = False
                for other in list(unassigned):
                    if any(other.overlaps(member)
                           and (other.consumers & member.consumers)
                           for member in component):
                        component.append(other)
                        unassigned.remove(other)
                        changed = True
            component.sort(
                key=lambda c: (-len(c.consumers), c.est_cardinality,
                               c.expr.describe())
            )
            components.append(component)
        overflow: list[InputCandidate] = []
        capped: list[list[InputCandidate]] = []
        for component in components:
            capped.append(component[:MAX_SEARCH])
            overflow.extend(component[MAX_SEARCH:])
        return capped, independent + overflow

    # -- Algorithm 1 ---------------------------------------------------------------

    def _search(self, s_list: tuple[_Entry, ...],
                chosen: tuple[_Entry, ...]
                ) -> tuple[float, tuple[_Entry, ...]]:
        key = frozenset(chosen)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if not s_list:
            self._explored += 1
            done = self._completions_for(chosen)
            result = (self._cost(chosen, done), chosen)
            self._memo[key] = result
            return result
        best_cost = float("inf")
        best_chosen: tuple[_Entry, ...] = chosen
        for idx, (expr_j, consumers_j) in enumerate(s_list):
            adjusted: list[_Entry] = []
            aliases_j = set(expr_j.aliases)
            for jdx, (expr_o, consumers_o) in enumerate(s_list):
                if jdx == idx:
                    continue
                if aliases_j & set(expr_o.aliases):
                    remaining = consumers_o - consumers_j
                    if remaining:
                        adjusted.append((expr_o, remaining))
                else:
                    adjusted.append((expr_o, consumers_o))
            cost, plan = self._search(
                tuple(adjusted), chosen + ((expr_j, consumers_j),)
            )
            if cost < best_cost:
                best_cost = cost
                best_chosen = plan
        self._memo[key] = (best_cost, best_chosen)
        return best_cost, best_chosen

    # -- leaf costing -----------------------------------------------------------------

    def _settle(self, served: frozenset[str]) -> None:
        """Fix what the coming leaves cannot change: only the CQs in
        ``served`` are listed by a candidate still to be committed, so
        every other CQ completes the same way at each leaf."""
        self._served_ids = [cq_id for cq_id in self._cq_by_id
                            if cq_id in served]
        self._settled = {
            cq_id: self._completion(cq_id, ())
            for cq_id in self._cq_by_id if cq_id not in served
        }

    def _completions_for(self, chosen: tuple[_Entry, ...]
                         ) -> dict[str, _Completion]:
        """Every CQ's completion under ``chosen``, in batch order."""
        serving: dict[str, list[SPJ]] = {
            cq_id: [] for cq_id in self._served_ids
        }
        for expr, consumers in chosen:
            for cq_id in consumers:
                serving[cq_id].append(expr)
        settled = self._settled
        return {
            cq_id: settled.get(cq_id)
            or self._completion(cq_id, tuple(serving[cq_id]))
            for cq_id in self._cq_by_id
        }

    def _cost(self, chosen: tuple[_Entry, ...],
              done: dict[str, _Completion]) -> float:
        """``plan_cost`` of the assignment ``chosen`` completes to --
        the same addends, added in the same order (inputs as
        :meth:`_assemble` lists them, probe sources by first use, then
        joins per CQ), from what the completions already hold."""
        depth: dict[SPJ, float] = {expr: 0.0 for expr, _ in chosen}
        depth.update(self._auto_unread)
        sources: dict[tuple, int] = {}
        for completion in done.values():
            for expr, read in completion.reads:
                if read > depth.get(expr, 0.0):
                    depth[expr] = read
            for key in completion.probe_keys:
                sources[key] = sources.get(key, 0) + 1
        model = self.cost_model
        total = 0.0
        for expr, reach in depth.items():
            if not reach:
                continue  # offered, but every consumer declined it
            already = self._already.get(expr)
            if already is None:
                already = self._already[expr] = (
                    self.oracle.tuples_already_read(expr)
                    if self.oracle else 0)
            total += model.read_cost(reach, already)
        for (relation, _sels), count in sources.items():
            total += model.probe_source_cost(relation, count)
        for join_cost in self._join_costs:
            total += join_cost
        return total

    # -- plan completion ---------------------------------------------------------------

    def _completion(self, cq_id: str, served: tuple[SPJ, ...]
                    ) -> _Completion:
        key = (cq_id, served)
        done = self._completion_memo.get(key)
        if done is None:
            done = self._completion_memo[key] = self._complete_cq(
                self._cq_by_id[cq_id], served)
        return done

    def _prelude(self, cq: ConjunctiveQuery
                 ) -> tuple[tuple[str, SPJ, bool, float], ...]:
        """``(alias, induced base input, selective, cardinality)`` per
        streamable atom, in atom order -- what the base-relation
        fallback consults, whatever the leaf."""
        prelude = self._preludes.get(cq.cq_id)
        if prelude is None:
            streamable = self.streamable[cq.cq_id]
            bases = [(alias, cq.expr.induced({alias}))
                     for alias in cq.expr.aliases if alias in streamable]
            prelude = self._preludes[cq.cq_id] = tuple(
                (alias, base, bool(base.selections),
                 self.cost_model.est_cardinality(base))
                for alias, base in bases
            )
        return prelude

    def _complete_cq(self, cq: ConjunctiveQuery, served: tuple[SPJ, ...]
                     ) -> _Completion:
        """Turn the committed candidates serving one CQ into its full
        valid input assignment."""
        coverage: set[str] = set()
        picked: list[SPJ] = []
        for expr in served:
            # A completion-time conflict can only arise from imprecise
            # memo reuse; resolve by skipping.
            if coverage.isdisjoint(expr.aliases):
                coverage.update(expr.aliases)
                picked.append(expr)
        for candidate in self._auto_for[cq.cq_id]:
            if coverage.isdisjoint(candidate.expr.aliases):
                coverage.update(candidate.expr.aliases)
                picked.append(candidate.expr)
        limit = self.cost_model.stream_preference_limit()
        bases: list[SPJ] = []
        deferred: list[tuple[float, str]] = []
        for alias, base, selective, card in self._prelude(cq):
            # Atoms outside the prelude are score-less and large:
            # probe, period.
            if alias in coverage:
                continue
            if selective or card <= limit:
                bases.append(base)
                coverage.add(alias)
            else:
                # Scored but unselected and large: a flat stream
                # descends the threshold too slowly -- access it by
                # key probes (Figure 4's TP_R / UP_R pattern).
                deferred.append((card, alias))
        if not picked and not bases:
            # Every m-join needs at least one driving stream.
            deferred.sort()
            _card, anchor = deferred.pop(0)
            bases.append(cq.expr.induced({anchor}))
            coverage.add(anchor)
        probes = tuple(a for a in cq.expr.aliases if a not in coverage)
        return _Completion(
            picked=tuple(picked),
            bases=tuple(bases),
            probes=probes,
            reads=tuple((expr, self.cost_model.expected_read(expr, cq))
                        for expr in picked + bases),
            probe_keys=tuple(probe_source_key(cq.expr, alias)
                             for alias in probes),
        )

    def _assemble(self, chosen: tuple[_Entry, ...],
                  done: dict[str, _Completion]
                  ) -> tuple[dict[SPJ, frozenset[str]],
                             dict[str, tuple[str, ...]]]:
        """The whole-batch assignment ``(I, I-map)``: committed inputs
        first, then the automatic candidates, then base relations in
        query order."""
        streams: dict[SPJ, set[str]] = {}
        offered = list(chosen) + [(c.expr, c.consumers) for c in self._auto]
        for expr, consumers in offered:
            users = {cq_id for cq_id in consumers
                     if cq_id in done and expr in done[cq_id].picked}
            if users:
                streams.setdefault(expr, set()).update(users)
        for cq_id, completion in done.items():
            for base in completion.bases:
                streams.setdefault(base, set()).add(cq_id)
        return (
            {expr: frozenset(consumers) for expr, consumers in streams.items()},
            {cq_id: completion.probes for cq_id, completion in done.items()},
        )
