"""Schema graphs.

A :class:`Schema` is the middleware's global picture of the federation:
relations (each hosted at some *site*, i.e. one simulated remote DBMS),
their attributes, and the edges -- foreign keys, record links, and other
potential join relationships -- connecting them (Figure 1 of the paper).

Edges carry a *cost*, used by the Q System scoring model (Section 2.1):
lower cost means a more trustworthy join path, and a conjunctive query's
static score component is derived from the costs of the edges it uses.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.common.errors import SchemaError


@dataclass(frozen=True)
class Attribute:
    """One column of a relation.

    ``is_key`` marks join/identifier columns (they get hash indexes at
    the site).  ``is_score`` marks columns that contribute to ranking
    (similarity scores on link tables, IR match scores, publication
    recency, ...); relations with no score attributes are the ones the
    Section 5.1.1 heuristic turns into probe-only sources.  ``is_text``
    marks columns indexed by the keyword inverted index.
    """

    name: str
    is_key: bool = False
    is_score: bool = False
    is_text: bool = False


@dataclass(frozen=True)
class Relation:
    """A named relation hosted at one site of the federation."""

    name: str
    attributes: tuple[Attribute, ...]
    site: str = "site0"
    node_cost: float = 0.0
    """Q System authoritativeness cost: lower is more authoritative."""

    def __post_init__(self) -> None:
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError(
                f"relation {self.name!r} has duplicate attributes: {names}"
            )

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def attribute(self, name: str) -> Attribute:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise SchemaError(f"relation {self.name!r} has no attribute {name!r}")

    def has_attribute(self, name: str) -> bool:
        return any(a.name == name for a in self.attributes)

    @property
    def key_attributes(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes if a.is_key)

    @property
    def score_attributes(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes if a.is_score)

    @property
    def text_attributes(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes if a.is_text)

    @property
    def has_score(self) -> bool:
        """Whether this relation can be streamed in rank order."""
        return bool(self.score_attributes)


@dataclass(frozen=True)
class SchemaEdge:
    """A joinable relationship between two relations.

    ``cost`` is the Q System edge cost c_e; ``kind`` distinguishes
    foreign keys from record-link tables and hyperlink-ish edges, which
    the cost model uses when deciding whether a join is cheap at the
    source (key-key joins) or expensive (non-key joins).
    """

    left_relation: str
    left_attr: str
    right_relation: str
    right_attr: str
    cost: float = 1.0
    kind: str = "fk"

    def touches(self, relation: str) -> bool:
        return relation in (self.left_relation, self.right_relation)

    def other(self, relation: str) -> str:
        if relation == self.left_relation:
            return self.right_relation
        if relation == self.right_relation:
            return self.left_relation
        raise SchemaError(f"{relation!r} is not part of edge {self}")


class Schema:
    """The federation's schema graph: relations plus join edges."""

    def __init__(self, relations: Iterable[Relation],
                 edges: Iterable[SchemaEdge] = ()) -> None:
        self._relations: dict[str, Relation] = {}
        for relation in relations:
            if relation.name in self._relations:
                raise SchemaError(f"duplicate relation {relation.name!r}")
            self._relations[relation.name] = relation
        self._edges: list[SchemaEdge] = []
        self._adjacency: dict[str, list[SchemaEdge]] = {
            name: [] for name in self._relations
        }
        for edge in edges:
            self.add_edge(edge)

    # -- construction ---------------------------------------------------

    def add_edge(self, edge: SchemaEdge) -> None:
        for relation, attr in ((edge.left_relation, edge.left_attr),
                               (edge.right_relation, edge.right_attr)):
            if relation not in self._relations:
                raise SchemaError(
                    f"edge {edge} references unknown relation {relation!r}"
                )
            if not self._relations[relation].has_attribute(attr):
                raise SchemaError(
                    f"edge {edge} references unknown attribute "
                    f"{relation}.{attr}"
                )
        self._edges.append(edge)
        self._adjacency[edge.left_relation].append(edge)
        if edge.right_relation != edge.left_relation:
            self._adjacency[edge.right_relation].append(edge)

    # -- lookups ----------------------------------------------------------

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    @property
    def relations(self) -> tuple[Relation, ...]:
        return tuple(self._relations.values())

    @property
    def edges(self) -> tuple[SchemaEdge, ...]:
        return tuple(self._edges)

    def edges_of(self, relation: str) -> tuple[SchemaEdge, ...]:
        if relation not in self._relations:
            raise SchemaError(f"unknown relation {relation!r}")
        return tuple(self._adjacency[relation])

    def neighbours(self, relation: str) -> tuple[str, ...]:
        return tuple(sorted({e.other(relation) for e in self.edges_of(relation)}))

    def edges_between(self, left: str, right: str) -> tuple[SchemaEdge, ...]:
        return tuple(e for e in self.edges_of(left) if e.other(left) == right)

    def sites(self) -> tuple[str, ...]:
        return tuple(sorted({r.site for r in self.relations}))

    def relations_at(self, site: str) -> tuple[Relation, ...]:
        return tuple(r for r in self.relations if r.site == site)

    # -- graph algorithms ---------------------------------------------------

    def is_connected(self, names: Iterable[str]) -> bool:
        """Whether the given relations form a connected subgraph."""
        names = list(names)
        if not names:
            return False
        keep = set(names)
        for name in keep:
            if name not in self._relations:
                raise SchemaError(f"unknown relation {name!r}")
        seen = {names[0]}
        frontier = [names[0]]
        while frontier:
            current = frontier.pop()
            for edge in self._adjacency[current]:
                nxt = edge.other(current)
                if nxt in keep and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen == keep

    def validate(self) -> None:
        """Re-check internal consistency; raises SchemaError on failure."""
        for edge in self._edges:
            for relation, attr in ((edge.left_relation, edge.left_attr),
                                   (edge.right_relation, edge.right_attr)):
                self.relation(relation).attribute(attr)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Schema({len(self._relations)} relations, "
                f"{len(self._edges)} edges, {len(self.sites())} sites)")


def link_table(name: str, left: Relation, left_attr: str,
               right: Relation, right_attr: str, site: str,
               with_score: bool = True,
               cost: float = 1.0) -> tuple[Relation, tuple[SchemaEdge, ...]]:
    """Build a record-link relation bridging two others (orange squares
    in the paper's Figure 1), plus the two schema edges wiring it in.

    The link table carries foreign keys to both sides and, when
    ``with_score`` is set, a ``score`` similarity attribute -- matching
    the paper's synthetic setup where every synonym/relationship table
    gains a similarity score column.
    """
    attrs = [
        Attribute("left_ref", is_key=True),
        Attribute("right_ref", is_key=True),
    ]
    if with_score:
        attrs.append(Attribute("score", is_score=True))
    relation = Relation(name, tuple(attrs), site=site)
    edges = (
        SchemaEdge(left.name, left_attr, name, "left_ref",
                   cost=cost, kind="link"),
        SchemaEdge(name, "right_ref", right.name, right_attr,
                   cost=cost, kind="link"),
    )
    return relation, edges
