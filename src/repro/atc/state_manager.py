"""The query state (QS) manager.

Section 3: "The query state manager is responsible for managing the set
of query plan graphs that occupy the CPU and memory."  Concretely, this
module owns:

* the plan graphs (one per query cluster for ATC-CL, the single
  ``"main"`` graph for every other mode);
* **grafting** (Section 6.2): matching a new factorized plan against
  the operators already in a graph, node id by node id, creating only
  the missing operators and splicing split edges into existing ones;
* **lazy CQ activation** driven by the rank-merge frontier, which is
  what keeps the number of executed CQs per user query small (Table 4);
* **state recovery** (Algorithm 2): when an activated CQ's plan touches
  state that predates it, the missed results are recomputed from the
  modules' insertion-ordered linked lists -- each new m-join node gets
  a *seed*, the recovery join over its suppliers' stored tuples
  (replay one input, treat the others as indexed random-access
  inputs), and the rank-merge receives the final node's existing
  output merged with its pending seed as one more ranked input, read
  only as deep as its threshold demands.  A seed is run into its
  node's module before anything reads the node as a supplier;
* **unlinking and eviction** (Section 6.3): completed queries are
  unlinked back to the nearest split.  An m-join left without consumers
  leaves the graph with its state -- a later query that needs it
  grafts a new one, seeded from its suppliers -- while input units
  keep theirs for reuse until the memory budget forces LRU
  (size-tiebreak) eviction, after which a source must be re-streamed
  from the site;
* **terminal records and release**: every query that completes or is
  retired leaves one frozen :class:`Terminal` in :attr:`QueryStateManager.
  outbox`, made at its terminal instant by :meth:`QueryStateManager.
  finalize_uq_record`.  When the engine hands a record over, it drops
  everything only that query held -- its rank-merge, its graph
  assignment and its CQs' plans (:meth:`QueryStateManager.release`).
  Operators and their state are the graph's, not the query's, and stay.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import ExecutionConfig, SharingMode
from repro.common.errors import StateError
from repro.data.database import Federation
from repro.keyword.queries import ConjunctiveQuery, RankedAnswer, UserQuery
from repro.operators.nodes import InputUnit, MJoinNode, RecoveryUnit
from repro.operators.ranked_join import ProbeTarget
from repro.operators.rankmerge import RankMerge
from repro.optimizer.clustering import IncrementalClusterer
from repro.optimizer.cost import ReuseOracle
from repro.optimizer.factorize import FactorizedPlan, SourceSpec
from repro.plan.graph import PlanGraph


@dataclass(frozen=True)
class Terminal:
    """One user query's terminal disposition, made once, at the instant
    it was reached: ``how`` is ``"done"``, ``"cancelled"`` or
    ``"expired"``; ``answers`` are those emitted by ``at``, and
    ``first_emitted`` is the first emission's instant (``None`` when
    nothing was emitted)."""

    uq_id: str
    how: str
    at: float
    answers: list[RankedAnswer]
    first_emitted: float | None


class GraphReuseOracle(ReuseOracle):
    """Reuse-aware costing hooks for one graph (Section 6.1).

    The expression-to-unit map is snapshotted at construction (one
    oracle is created per optimizer invocation), so the hot
    ``tuples_already_read`` path is a dict lookup.
    """

    def __init__(self, graph: PlanGraph) -> None:
        self.graph = graph
        self._units_by_expr: dict = {}
        for unit in graph.units.values():
            self._units_by_expr.setdefault(unit.expr, unit)

    def tuples_already_read(self, expr) -> int:
        unit = self._units_by_expr.get(expr)
        if unit is None:
            return 0
        return unit.module.size


class QueryStateManager:
    """Owns plan graphs and all dynamic plan surgery."""

    def __init__(self, federation: Federation, config: ExecutionConfig) -> None:
        self.federation = federation
        self.config = config
        self.graphs: dict[str, PlanGraph] = {}
        #: Per graph: conjunctive query id -> the factorized plan of the
        #: batch it was optimized in.  The plan holds the specs its
        #: operators are instantiated from, so it lives exactly as long
        #: as one of its queries is registered.
        self.cq_plans: dict[str, dict[str, FactorizedPlan]] = {}
        #: Which graph each registered user query runs on (the online
        #: service resolves completions per live query through this
        #: instead of rescanning every graph).
        self.uq_graphs: dict[str, str] = {}
        self.clusterer = IncrementalClusterer(
            merge_threshold=config.cluster_jaccard,
            min_refs=config.cluster_min_refs,
        )
        #: Terminal records not yet handed over by the engine, in the
        #: order their queries reached them.
        self.outbox: list[Terminal] = []

    # -- graph routing -----------------------------------------------------------

    def graph_id_for(self, uq: UserQuery) -> str:
        """Which plan graph a user query executes on, per sharing mode.

        The paper's middleware is one machine: ATC-CQ, ATC-UQ, and
        ATC-FULL all schedule every query through a single ATC (the
        modes differ in what they *share*, not in how many schedulers
        exist), while ATC-CL is precisely the configuration that gains
        parallelism by running one ATC per query cluster (Section 6.1:
        "To improve concurrency, we can generate multiple query plan
        graphs, each with their own ATC").
        """
        if self.config.mode is SharingMode.ATC_CL:
            return self.clusterer.assign(uq)
        return "main"

    def get_or_create_graph(self, graph_id: str) -> PlanGraph:
        graph = self.graphs.get(graph_id)
        if graph is None:
            graph = PlanGraph(graph_id, self.federation, self.config)
            self.graphs[graph_id] = graph
            self.cq_plans[graph_id] = {}
        return graph

    def oracle_for(self, graph: PlanGraph) -> GraphReuseOracle:
        return GraphReuseOracle(graph)

    # -- grafting -----------------------------------------------------------------

    def register_plan(self, graph: PlanGraph, plan: FactorizedPlan,
                      uqs: list[UserQuery]) -> None:
        """Record the plan of every conjunctive query in ``uqs`` and
        create the user queries' rank-merge operators.

        Operators themselves are instantiated lazily on CQ activation,
        from the activating CQ's plan; matching is by node id
        (expression + input structure), so a spec identical to an
        existing operator reuses it -- that is the graft -- and only
        genuinely new segments will create operators.
        """
        plans = self.cq_plans[graph.graph_id]
        for uq in uqs:
            for cq in uq.cqs:
                if cq.cq_id in plan.cq_final:
                    plans[cq.cq_id] = plan
        for uq in uqs:
            if uq.uq_id in graph.rank_merges:
                raise StateError(
                    f"user query {uq.uq_id} already registered on "
                    f"{graph.graph_id}"
                )
            graph.rank_merges[uq.uq_id] = RankMerge(uq, clock=graph.clock)
            self.uq_graphs[uq.uq_id] = graph.graph_id

    # -- node instantiation ------------------------------------------------------------

    def ensure_node(self, graph: PlanGraph, node_id: str,
                    plan: FactorizedPlan) -> InputUnit | MJoinNode:
        """Instantiate (or reuse) one plan-graph operator; ``plan`` --
        the activating CQ's -- supplies the specs of the operators that
        do not exist yet."""
        existing = graph.units.get(node_id) or graph.nodes.get(node_id)
        if existing is not None:
            return existing
        spec = plan.sources.get(node_id) or plan.components.get(node_id)
        if spec is None:
            raise StateError(
                f"{graph.graph_id}: no spec in the plan for node {node_id!r}"
            )
        if isinstance(spec, SourceSpec):
            return graph.create_unit(node_id, spec.expr, spec.value_key)
        children = [self.ensure_node(graph, cid, plan)
                    for cid in spec.stream_children]
        self._materialize_seeds(children)
        targets = []
        scope = node_id.split(":", 2)[1]
        for alias in spec.probe_atoms:
            relation = spec.expr.alias_to_relation[alias]
            selections = spec.expr.selections_on(alias)
            source = graph.ra_source_for(relation, selections, scope)
            targets.append(ProbeTarget(
                f"{node_id}->ra:{alias}",
                frozenset((alias,)),
                "random",
                ra_source=source,
                ra_alias=alias,
            ))
        caps = {
            atom.alias: self.federation.stats(atom.relation).max_contribution
            for atom in spec.expr.atoms
        }
        node = MJoinNode(
            name=node_id,
            expr=spec.expr,
            suppliers=children,
            probe_targets=targets,
            caps=caps,
            clock=graph.clock,
            metrics=graph.metrics,
            delays=self.config.delays,
            adaptive=self.config.adaptive_probe_ordering,
            value_key=spec.value_key,
        )
        node.seed_from_suppliers()
        for child in children:
            child.consumers.append(node)
        graph.nodes[node_id] = node
        return node

    @staticmethod
    def _materialize_seeds(children) -> None:
        """Run every m-join child's pending seed into its module: its
        new parent is about to index, probe and seed from it."""
        for child in children:
            if isinstance(child, MJoinNode):
                child.materialize_seed()

    # -- activation -----------------------------------------------------------------

    def ensure_activation(self, graph: PlanGraph, rm: RankMerge) -> int:
        """Activate pending CQs while the rank-merge frontier demands it."""
        activated = 0
        while rm.should_activate():
            cq = rm.next_pending()
            self.activate(graph, rm, cq)
            activated += 1
        return activated

    def activate(self, graph: PlanGraph, rm: RankMerge,
                 cq: ConjunctiveQuery) -> None:
        """Graft one conjunctive query into the running graph.

        Bumps the epoch (Section 6.2), instantiates the CQ's component
        chain (new nodes seed themselves from existing supplier state),
        registers the live stream, and -- when the final operator
        already holds produced results or a pending seed -- registers a
        free recovery replay of both as an additional ranked input,
        exactly the role of ``CQ^e`` in Algorithm 2.
        """
        epoch = graph.next_epoch()
        plan = self.cq_plans[graph.graph_id].get(cq.cq_id)
        if plan is None:
            raise StateError(
                f"{graph.graph_id}: no plan registered for CQ {cq.cq_id!r}"
            )
        final = self.ensure_node(graph, plan.cq_final[cq.cq_id], plan)
        rm.register_stream(cq, final, kind="live")
        unit = RecoveryUnit(
            f"rec:{cq.cq_id}:e{epoch}", cq.expr,
            final.module.ranked_replay(),
            graph.metrics,
            seed=final.seed if isinstance(final, MJoinNode) else None,
        )
        if not unit.exhausted:
            rm.register_stream(cq, unit, kind="recovery")
            graph.metrics.recovery_queries += 1

    # -- completion and unlinking ---------------------------------------------------------

    def retire(self, graph: PlanGraph, rm: RankMerge, how: str,
               at: float | None = None) -> None:
        """Retire one user query early (``how`` is "cancelled" or
        "expired") without tearing down operator state other in-flight
        queries still share.

        The rank-merge is terminated with its answers-so-far, then the
        normal completion unlink runs: the query's taps are removed and
        operators are unlinked *only* when their consumer list empties
        -- the same refcounted release that reuse bookkeeping relies
        on, so a split still feeding another query survives intact.
        """
        rm.terminate(how)
        self.on_complete(graph, rm)
        self.finalize_uq_record(graph, rm, at=at, outcome=how)

    def finalize_uq_record(self, graph: PlanGraph, rm: RankMerge,
                           at: float | None = None,
                           outcome: str | None = None) -> None:
        """Close out one user query at its terminal instant (``at``,
        default the graph's clock): settle its :class:`~repro.obs.
        records.UQRecord` from the rank-merge's final state and post its
        :class:`Terminal` to the outbox.  The single place completion
        (the ATC) and early retirement (:meth:`retire`) both settle, so
        the two paths cannot drift.  Answers emitted before a
        retirement were delivered, so they count toward
        ``tuples_output`` either way."""
        if at is None:
            at = graph.clock.now
        record = graph.metrics.uq_records.get(rm.uq.uq_id)
        if record is not None:
            if outcome is not None:
                record.outcome = outcome
            if record.completed is None:
                record.completed = at
            at = record.completed
            record.results_returned = len(rm.emitted)
            record.cqs_total = len(rm.uq.cqs)
            record.cqs_executed = rm.activations
            record.first_emitted = rm.first_emitted_at
            graph.metrics.tuples_output += len(rm.emitted)
        self.outbox.append(Terminal(rm.uq.uq_id, outcome or "done", at,
                                    rm.answers, rm.first_emitted_at))

    def on_complete(self, graph: PlanGraph, rm: RankMerge) -> None:
        """Unlink a finished user query (Section 6.3): remove its
        rank-merge taps, then walk backwards unlinking operators that no
        longer route tuples anywhere (stopping at splits that still
        serve other queries).  An unlinked m-join leaves the graph with
        its state: nothing references it, and a later query that needs
        it grafts a new one.  Input units keep their state for reuse."""
        for entry in rm.entries.values():
            supplier = entry.supplier
            supplier.consumers = [
                c for c in supplier.consumers
                if getattr(c, "merge", None) is not rm
            ]
            self._detach_if_orphan(graph, supplier)

    def release(self, uq_id: str) -> None:
        """Forget one terminal user query: its rank-merge, its graph
        assignment and its CQs' plans (nothing, if it never
        dispatched).  Operators and their state stay."""
        graph_id = self.uq_graphs.pop(uq_id, None)
        if graph_id is None:
            return
        rm = self.graphs[graph_id].rank_merges.pop(uq_id)
        plans = self.cq_plans[graph_id]
        for cq in rm.uq.cqs:
            plans.pop(cq.cq_id, None)

    def _detach_if_orphan(self, graph: PlanGraph, supplier) -> None:
        if supplier.consumers:
            return
        if graph.nodes.get(supplier.name) is supplier:
            del graph.nodes[supplier.name]
            for child in supplier.suppliers:
                child.consumers = [
                    c for c in child.consumers if c is not supplier
                ]
                self._detach_if_orphan(graph, child)
        # InputUnits with no consumers simply stop being read; their
        # state stays cached until eviction.  A RecoveryUnit belongs to
        # its rank-merge alone and goes with it.  An m-join no longer in
        # the graph was unlinked already.

    # -- eviction -----------------------------------------------------------------------

    def enforce_budget(self, graph: PlanGraph) -> int:
        """Evict least-recently-used state no operator consumes until
        the graph fits the memory budget; returns tuples freed."""
        budget = self.config.memory_budget_tuples
        if budget is None:
            return 0
        freed = 0
        remaining = graph.state_size()
        if remaining <= budget:
            return 0
        victims: list[tuple[int, int, tuple, object]] = []
        for unit in graph.units.values():
            if unit.consumers:
                continue
            victims.append((unit.last_used_epoch, -unit.module.size,
                            ("unit", unit.value_key), unit))
        for key, source in graph.ra_sources.items():
            victims.append((0, -source.cache_size, ("ra", key), source))
        victims.sort()
        for _epoch, _size, label, victim in victims:
            if remaining <= budget:
                break
            if isinstance(victim, InputUnit):
                dropped = victim.module.clear()
                victim.source.reset()
            else:
                dropped = victim.clear_cache()
            freed += dropped
            remaining -= dropped
            graph.metrics.evictions += 1
        return freed

    # -- aggregate views ---------------------------------------------------------------------

    def total_state_size(self) -> int:
        """Stored tuples across every graph (read when the
        ``repro_state_tuples`` gauge is published)."""
        return sum(graph.state_size() for graph in self.graphs.values())

    def merged_metrics(self):
        from repro.obs.records import Metrics

        merged = Metrics()
        for graph in self.graphs.values():
            merged.merge_from(graph.metrics)
        return merged
