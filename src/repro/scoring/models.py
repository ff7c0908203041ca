"""The three scoring models of Section 2.1, as MonotoneScore factories.

Each factory takes a conjunctive query's skeleton -- its atoms and
joins; the candidate-network generator passes no selections, and shares
the result among every query with that skeleton -- plus the schema (for
edge/node costs) and per-relation statistics (for contribution caps) and
returns the :class:`~repro.scoring.base.MonotoneScore` the paper's text
describes:

* **DISCOVER** [12, 13]: ``C(t) = 1/size(CQ)`` or
  ``C(t) = sum_i score(t_i) / size(CQ)`` -- candidate networks ranked by
  size, optionally refined with the per-tuple IR scores.

* **Q System** [32, 33]: ``C(t) = 1/2^c`` with
  ``c = sum_e c_e + sum_i cost(t_i)``: edge costs from the schema graph
  (possibly re-weighted per user) plus per-tuple costs.  We map a
  tuple's cost to ``cap - contribution`` so that higher-scoring source
  tuples mean lower cost, preserving the paper's semantics while
  keeping the function monotone *increasing* in the contributions.

* **BANKS/BLINKS** [2, 11]: a monotone combination of node prestige and
  edge weights; we implement the standard affine form
  ``lambda_e * edgescore + (1 - lambda_e) * sum node_weight_i *
  contrib_i``.

User-specific coefficients: the Q System "supports custom ranking
functions for each user" and the synthetic workload draws score-function
coefficients from a Zipfian distribution; :func:`user_coefficients`
reproduces that draw.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.common.rng import ZipfSampler, make_rng
from repro.data.database import Federation
from repro.data.schema import Schema, SchemaEdge
from repro.plan.expressions import SPJ
from repro.scoring.base import MonotoneScore


def contribution_caps(expr: SPJ, federation: Federation
                      ) -> dict[str, float]:
    """Per-alias upper bounds on score contributions, from site stats."""
    caps: dict[str, float] = {}
    for atom in expr.atoms:
        stats = federation.stats(atom.relation)
        caps[atom.alias] = stats.max_contribution
    return caps


def tree_edges(expr: SPJ, schema: Schema) -> list[SchemaEdge]:
    """The schema edges a CQ's join predicates traverse.

    Each join predicate is matched to the (unique, cheapest) schema edge
    between its two relations that uses the same attribute pair.
    """
    edges: list[SchemaEdge] = []
    for pred in expr.joins:
        left_rel = expr.alias_to_relation[pred.left_alias]
        right_rel = expr.alias_to_relation[pred.right_alias]
        best: SchemaEdge | None = None
        for edge in schema.edges_between(left_rel, right_rel):
            attrs = {
                (edge.left_relation, edge.left_attr),
                (edge.right_relation, edge.right_attr),
            }
            wanted = {
                (left_rel, pred.left_attr),
                (right_rel, pred.right_attr),
            }
            if attrs == wanted and (best is None or edge.cost < best.cost):
                best = edge
        if best is not None:
            edges.append(best)
    return edges


def discover_score(expr: SPJ, federation: Federation,
                   use_ir_scores: bool = True) -> MonotoneScore:
    """The DISCOVER model: size-normalized, optionally IR-weighted."""
    size = expr.size
    caps = contribution_caps(expr, federation)
    if use_ir_scores:
        weights = {alias: 1.0 / size for alias in expr.aliases}
        return MonotoneScore(weights, 0.0, "identity", caps)
    weights = {alias: 0.0 for alias in expr.aliases}
    return MonotoneScore(weights, 1.0 / size, "identity", caps)


def qsystem_score(expr: SPJ, federation: Federation,
                  edge_multipliers: Mapping[str, float] | None = None,
                  ) -> MonotoneScore:
    """The Q System model: ``C(t) = 2**-(static_cost + tuple costs)``.

    ``edge_multipliers`` optionally re-weights each relation's learned
    authority per user (keyed by relation name); this is how different
    users get different scoring functions over the same queries.
    """
    schema = federation.schema
    caps = contribution_caps(expr, federation)
    multipliers = edge_multipliers or {}
    static_cost = 0.0
    for edge in tree_edges(expr, schema):
        static_cost += edge.cost
    for atom in expr.atoms:
        relation = schema.relation(atom.relation)
        static_cost += relation.node_cost * multipliers.get(atom.relation, 1.0)
    # cost(t_i) = cap_i - contrib_i  =>  c = static_cost + sum(cap - contrib)
    # C  = 2^-c = 2^( -(static_cost + sum caps) + sum contribs )
    total_caps = sum(caps.values())
    weights = {alias: 1.0 for alias in expr.aliases}
    static = -(static_cost + total_caps)
    return MonotoneScore(weights, static, "exp2", caps)


def banks_score(expr: SPJ, federation: Federation,
                node_weights: Mapping[str, float] | None = None,
                edge_lambda: float = 0.3) -> MonotoneScore:
    """A BANKS-style monotone combination of edge and node scores."""
    schema = federation.schema
    caps = contribution_caps(expr, federation)
    edges = tree_edges(expr, schema)
    max_cost = max((e.cost for e in schema.edges), default=1.0) or 1.0
    # Edge score: better (lower-cost) edges score higher, normalized to
    # [0, 1] per edge then averaged over the tree.
    if edges:
        edge_score = sum(1.0 - e.cost / (max_cost + 1e-9) for e in edges)
        edge_score /= len(edges)
    else:
        edge_score = 1.0
    provided = node_weights or {}
    weights = {}
    for atom in expr.atoms:
        weights[atom.alias] = (
            (1.0 - edge_lambda) * provided.get(atom.relation, 1.0)
            / max(1, expr.size)
        )
    return MonotoneScore(weights, edge_lambda * edge_score, "identity", caps)


def user_coefficients(relations: Sequence[str], seed: int, user: str,
                      levels: int = 8) -> dict[str, float]:
    """Zipf-drawn per-relation multipliers for one user's score function.

    Reproduces the synthetic workload's "coefficients on the score
    functions for the various user queries were drawn from a Zipfian
    distribution": each relation gets a multiplier in (0, 1] whose rank
    is Zipf-distributed, so most relations keep weight ~1 and a few are
    discounted.
    """
    rng = make_rng(seed, "user-coeff", user)
    sampler = ZipfSampler(levels, theta=1.0, rng=rng)
    out = {}
    for relation in relations:
        rank = sampler.sample()
        out[relation] = round(1.0 - rank / (2.0 * levels), 6)
    return out


#: Factory registry used by the workload builders.
SCORING_MODELS = {
    "discover": discover_score,
    "qsystem": qsystem_score,
    "banks": banks_score,
}
