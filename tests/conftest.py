"""Shared fixtures: tiny federations and hand-built query objects.

Engine-level tests compare against the brute-force oracle, which is
exponential in join depth, so every fixture here is deliberately tiny:
tens of rows per relation and fan-outs near 1.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.common.config import DelayModel, ExecutionConfig, SharingMode
from repro.data.database import Federation
from repro.data.figure1 import figure1_federation, figure1_schema
from repro.data.generator import SyntheticDataGenerator
from repro.data.gus import GUSConfig, gus_federation
from repro.data.schema import Attribute, Relation, Schema, SchemaEdge
from repro.keyword.queries import ConjunctiveQuery
from repro.plan.expressions import SPJ, Atom, JoinPred, Selection
from repro.scoring.base import MonotoneScore

#: CI's oracle leg runs ``tests/test_oracle_properties.py`` and
#: ``tests/test_id_salt_properties.py`` with
#: ``HYPOTHESIS_PROFILE=deep``; otherwise hypothesis's default profile
#: stays in force.  Tests that pin ``max_examples`` keep their own.
settings.register_profile("deep", max_examples=2000)
if os.environ.get("HYPOTHESIS_PROFILE") == "deep":
    settings.load_profile("deep")

#: Cardinalities small enough for oracle comparison.
TINY_FIG1_CARDS = {
    "UP": 60, "TP": 50, "E": 40, "E2M": 70, "I2G": 70,
    "T": 60, "TS": 65, "G2G": 75, "GI": 60, "RL": 65,
}


@pytest.fixture(scope="session")
def fig1_schema():
    return figure1_schema()


@pytest.fixture(scope="session")
def fig1_federation():
    return figure1_federation(seed=7, cardinalities=dict(TINY_FIG1_CARDS),
                              domain_factor=0.7)


def e2e_corpus() -> Federation:
    """What ``repro serve --http --corpus gus --seed 7`` serves: the
    corpus of ``benchmarks/e2e``, for tests that pin or cross-check the
    optimizer on the batches the benchmark sends it."""
    return gus_federation(GUSConfig(
        n_hubs=8, links_per_extra_hub=2, synonym_every=3,
        satellites_per_hub=1, n_sites=4, min_rows=80, max_rows=260,
        domain_factor=0.45, seed=7))


def make_triple_schema() -> Schema:
    """A minimal 3-relation chain A -x- B -y- C on two sites.

    A and C carry scores (streamable); B does not (probe-only unless
    tiny).  Used by operator-level tests that need full control.
    """
    relations = [
        Relation("A", (
            Attribute("x", is_key=True),
            Attribute("name", is_text=True),
            Attribute("s", is_score=True),
        ), site="s1", node_cost=0.2),
        Relation("B", (
            Attribute("x", is_key=True),
            Attribute("y", is_key=True),
        ), site="s1", node_cost=0.3),
        Relation("C", (
            Attribute("y", is_key=True),
            Attribute("name", is_text=True),
            Attribute("s", is_score=True),
        ), site="s2", node_cost=0.2),
    ]
    edges = [
        SchemaEdge("A", "x", "B", "x", cost=0.5, kind="fk"),
        SchemaEdge("B", "y", "C", "y", cost=0.5, kind="fk"),
    ]
    return Schema(relations, edges)


def load_triple_federation(rows_a=None, rows_b=None, rows_c=None
                           ) -> Federation:
    """A hand-loaded instance of the triple schema."""
    schema = make_triple_schema()
    federation = Federation(schema)
    federation.load("A", rows_a if rows_a is not None else [
        {"x": 1, "name": "alpha protein", "s": 0.9},
        {"x": 2, "name": "beta gene", "s": 0.7},
        {"x": 3, "name": "gamma protein", "s": 0.5},
    ])
    federation.load("B", rows_b if rows_b is not None else [
        {"x": 1, "y": 10},
        {"x": 2, "y": 10},
        {"x": 2, "y": 20},
        {"x": 3, "y": 30},
    ])
    federation.load("C", rows_c if rows_c is not None else [
        {"y": 10, "name": "delta membrane", "s": 0.8},
        {"y": 20, "name": "epsilon gene", "s": 0.6},
        {"y": 30, "name": "zeta membrane", "s": 0.4},
    ])
    return federation


@pytest.fixture()
def triple_federation() -> Federation:
    return load_triple_federation()


def abc_expr(selections: tuple[Selection, ...] = ()) -> SPJ:
    """The full A |X| B |X| C expression."""
    return SPJ(
        [Atom("A", "A"), Atom("B", "B"), Atom("C", "C")],
        [JoinPred.normalized("A", "x", "B", "x"),
         JoinPred.normalized("B", "y", "C", "y")],
        selections,
    )


def make_cq(expr: SPJ, federation: Federation, cq_id: str = "cq0",
            uq_id: str = "uq0", transform: str = "identity",
            static: float = 0.0) -> ConjunctiveQuery:
    """A CQ over ``expr`` with uniform weights and stat-derived caps."""
    caps = {
        atom.alias: federation.stats(atom.relation).max_contribution
        for atom in expr.atoms
    }
    weights = {alias: 1.0 for alias in expr.aliases}
    score = MonotoneScore(weights, static, transform, caps)
    return ConjunctiveQuery(cq_id, uq_id, expr, score)


@pytest.fixture()
def fast_config() -> ExecutionConfig:
    """Deterministic delays so timing assertions are exact."""
    return ExecutionConfig(
        k=5,
        batch_size=5,
        seed=3,
        delays=DelayModel(deterministic=True),
        mode=SharingMode.ATC_FULL,
    )


def populate_random(schema: Schema, cardinalities: dict[str, int],
                    seed: int = 0, domain_factor: float = 0.6
                    ) -> Federation:
    """Generic Zipf-populated instance of any schema (for hypothesis)."""
    federation = Federation(schema)
    generator = SyntheticDataGenerator(schema, seed=seed,
                                       domain_factor=domain_factor)
    generator.populate(federation, cardinalities)
    return federation
