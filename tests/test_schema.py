"""Tests for schema graphs."""

import pytest

from repro.common.errors import SchemaError
from repro.data.figure1 import figure1_schema
from repro.data.schema import Attribute, Relation, Schema, SchemaEdge, link_table


def attrs_for(edge: SchemaEdge, relation: str) -> tuple[str, str]:
    """``(attr on relation, attr on the other relation)``."""
    if relation == edge.left_relation:
        return edge.left_attr, edge.right_attr
    if relation == edge.right_relation:
        return edge.right_attr, edge.left_attr
    raise SchemaError(f"{relation!r} is not part of edge {edge}")


def shortest_path(schema: Schema, source: str,
                  target: str) -> list[SchemaEdge]:
    """BFS path between two relations; raises if unreachable."""
    paths = {source: []}
    queue = [source]
    while target not in paths:
        if not queue:
            raise SchemaError(f"no path between {source!r} and {target!r}")
        current = queue.pop(0)
        for edge in schema.edges_of(current):
            nxt = edge.other(current)
            if nxt not in paths:
                paths[nxt] = paths[current] + [edge]
                queue.append(nxt)
    return paths[target]


def expand_neighbourhood(schema: Schema, seeds, hops: int) -> set[str]:
    """Every relation within ``hops`` edges of any seed."""
    current = set(seeds)
    for _ in range(hops):
        current |= {n for name in current for n in schema.neighbours(name)}
    return current


def tiny_schema() -> Schema:
    return Schema(
        [
            Relation("R", (Attribute("x", is_key=True),
                           Attribute("s", is_score=True))),
            Relation("S", (Attribute("x", is_key=True),
                           Attribute("y", is_key=True))),
            Relation("T", (Attribute("y", is_key=True),
                           Attribute("name", is_text=True))),
        ],
        [
            SchemaEdge("R", "x", "S", "x", cost=0.4),
            SchemaEdge("S", "y", "T", "y", cost=0.6),
        ],
    )


class TestRelation:
    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            Relation("R", (Attribute("x"), Attribute("x")))

    def test_attribute_lookup(self):
        relation = tiny_schema().relation("R")
        assert relation.attribute("x").is_key

    def test_attribute_missing(self):
        with pytest.raises(SchemaError):
            tiny_schema().relation("R").attribute("nope")

    def test_classified_attributes(self):
        relation = tiny_schema().relation("R")
        assert relation.key_attributes == ("x",)
        assert relation.score_attributes == ("s",)
        assert relation.has_score

    def test_scoreless_relation(self):
        relation = tiny_schema().relation("S")
        assert not relation.has_score

    def test_text_attributes(self):
        assert tiny_schema().relation("T").text_attributes == ("name",)


class TestSchema:
    def test_duplicate_relation_rejected(self):
        relation = Relation("R", (Attribute("x"),))
        with pytest.raises(SchemaError):
            Schema([relation, relation])

    def test_edge_unknown_relation_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Relation("R", (Attribute("x"),))],
                   [SchemaEdge("R", "x", "Z", "x")])

    def test_edge_unknown_attribute_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Relation("R", (Attribute("x"),)),
                    Relation("S", (Attribute("x"),))],
                   [SchemaEdge("R", "q", "S", "x")])

    def test_unknown_relation_lookup(self):
        with pytest.raises(SchemaError):
            tiny_schema().relation("Z")

    def test_contains(self):
        schema = tiny_schema()
        assert "R" in schema
        assert "Z" not in schema

    def test_neighbours(self):
        schema = tiny_schema()
        assert schema.neighbours("S") == ("R", "T")

    def test_edges_between(self):
        schema = tiny_schema()
        edges = schema.edges_between("R", "S")
        assert len(edges) == 1
        assert edges[0].cost == 0.4

    def test_edge_orientation_helpers(self):
        edge = tiny_schema().edges_between("R", "S")[0]
        assert edge.other("R") == "S"
        assert attrs_for(edge, "S") == ("x", "x")
        with pytest.raises(SchemaError):
            edge.other("T")

    def test_is_connected(self):
        schema = tiny_schema()
        assert schema.is_connected(["R", "S", "T"])
        assert schema.is_connected(["R", "S"])
        assert not schema.is_connected(["R", "T"])

    def test_is_connected_empty(self):
        assert not tiny_schema().is_connected([])

    def test_shortest_path(self):
        schema = tiny_schema()
        path = shortest_path(schema, "R", "T")
        assert len(path) == 2

    def test_shortest_path_same_node(self):
        assert shortest_path(tiny_schema(), "R", "R") == []

    def test_shortest_path_unreachable(self):
        schema = Schema([
            Relation("A", (Attribute("x"),)),
            Relation("B", (Attribute("x"),)),
        ])
        with pytest.raises(SchemaError):
            shortest_path(schema, "A", "B")

    def test_expand_neighbourhood(self):
        schema = tiny_schema()
        assert expand_neighbourhood(schema, ["R"], 1) == {"R", "S"}
        assert expand_neighbourhood(schema, ["R"], 2) == {"R", "S", "T"}

    def test_validate_ok(self):
        tiny_schema().validate()

    def test_sites(self):
        schema = figure1_schema()
        assert set(schema.sites()) == {
            "uniprot", "prosite", "interpro", "geneontology", "ncbi",
        }

    def test_relations_at_site(self):
        schema = figure1_schema()
        names = {r.name for r in schema.relations_at("geneontology")}
        assert names == {"T", "TS", "G2G"}


class TestFigure1Schema:
    def test_relation_count(self):
        assert len(figure1_schema().relations) == 10

    def test_cq1_join_path_exists(self):
        # TP - E2M - I2G - T - TS - G2G - GI must all be connected
        schema = figure1_schema()
        assert schema.is_connected(
            ["TP", "E2M", "I2G", "T", "TS", "G2G", "GI"]
        )

    def test_scoreless_relations_are_probe_only(self):
        schema = figure1_schema()
        for name in ("E", "E2M", "I2G", "G2G"):
            assert not schema.relation(name).has_score


class TestLinkTable:
    def test_link_table_shape(self):
        left = Relation("L", (Attribute("id", is_key=True),))
        right = Relation("R", (Attribute("id", is_key=True),))
        link, edges = link_table("L2R", left, "id", right, "id", site="s")
        assert link.has_score
        assert len(edges) == 2
        assert edges[0].left_relation == "L"
        assert edges[1].right_relation == "R"

    def test_link_table_without_score(self):
        left = Relation("L", (Attribute("id", is_key=True),))
        right = Relation("R", (Attribute("id", is_key=True),))
        link, _edges = link_table("L2R", left, "id", right, "id",
                                  site="s", with_score=False)
        assert not link.has_score
