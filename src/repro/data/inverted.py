"""Keyword inverted index over the federation.

Keyword search systems match each search term against (a) relation
*metadata* (table/column names -- e.g. ``k3: "gene"`` matching the
``GeneInfo`` table in Figure 1) and (b) relation *content* through a
precomputed inverted index over text attributes (``k2: "plasma
membrane"`` matching rows of ``Term``).  This module provides both.

A content match later becomes a ``contains`` selection on the matched
relation inside each candidate network, and the relation's stored
IR-style score attribute supplies the dynamic score component.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.data.database import Federation
from repro.plan.expressions import Selection


@dataclass(frozen=True)
class KeywordMatch:
    """One keyword's match against one relation.

    ``via`` is ``"metadata"`` (table name matched; the whole relation is
    relevant, no selection needed) or ``"content"`` (rows matched; a
    ``contains`` selection on ``attr`` restricts the relation).
    ``strength`` in (0, 1] orders alternative matches -- metadata
    matches are strongest, content matches scale with the fraction of
    matching rows (rarer terms are more selective and more useful).
    """

    keyword: str
    relation: str
    via: str
    attr: str | None
    strength: float
    matching_rows: int = 0

    def selection(self, alias: str) -> Selection | None:
        """The selection this match imposes on the matched atom."""
        if self.via == "metadata" or self.attr is None:
            return None
        return Selection(alias, self.attr, "contains", self.keyword)


class InvertedIndex:
    """Token -> relation posting lists over every site's text columns.

    The lists follow the federation's rows: they are built under its
    statistics epoch, and a lookup after ``Federation.load`` has moved
    the epoch on rebuilds them first.
    """

    def __init__(self, federation: Federation) -> None:
        self.federation = federation
        self.schema = federation.schema
        self._build()

    def _build(self) -> None:
        self._epoch = self.federation.stats_epoch
        # token -> relation -> attr -> row count
        self._postings: dict[str, dict[str, dict[str, int]]] = defaultdict(
            lambda: defaultdict(lambda: defaultdict(int))
        )
        self._row_counts: dict[str, int] = {}
        for relation in self.schema.relations:
            text_attrs = relation.text_attributes
            database = self.federation.database_for(relation.name)
            rows = database.scan_sorted(relation.name)
            self._row_counts[relation.name] = len(rows)
            if not text_attrs:
                continue
            for row in rows:
                for attr in text_attrs:
                    for token in str(row[attr]).lower().split():
                        self._postings[token][relation.name][attr] += 1

    def _follow_rows(self) -> None:
        """Rebuild if rows were loaded since the last build."""
        if self.federation.stats_epoch != self._epoch:
            self._build()

    # -- lookups -----------------------------------------------------------

    def matches(self, keyword: str, max_matches: int = 5
                ) -> list[KeywordMatch]:
        """All relations matching ``keyword``, strongest first.

        Metadata matches (keyword occurs in the relation name,
        case-insensitively) come first with strength 1.0; content
        matches follow, ranked by selectivity (rarer is stronger).
        """
        self._follow_rows()
        keyword = keyword.strip().lower()
        out: list[KeywordMatch] = []
        for relation in self.schema.relations:
            if keyword in relation.name.lower():
                out.append(KeywordMatch(keyword, relation.name,
                                        "metadata", None, 1.0))
        # Multi-word phrases match content when every word matches the
        # same attribute ("plasma membrane" is matched via "contains").
        words = keyword.split()
        candidate_attrs: dict[tuple[str, str], int] = {}
        for word in words:
            for relation_name, attrs in self._postings.get(word, {}).items():
                for attr, count in attrs.items():
                    key = (relation_name, attr)
                    previous = candidate_attrs.get(key)
                    candidate_attrs[key] = (
                        count if previous is None else min(previous, count)
                    )
        for (relation_name, attr), count in sorted(candidate_attrs.items()):
            total = max(1, self._row_counts.get(relation_name, 1))
            selectivity = count / total
            if selectivity <= 0:
                continue
            # Rarer matches are more informative; cap below metadata.
            strength = 0.9 * (1.0 - selectivity)
            out.append(KeywordMatch(keyword, relation_name, "content",
                                    attr, round(strength, 6), count))
        out.sort(key=lambda m: (-m.strength, m.relation))
        return out[:max_matches]

    def vocabulary(self) -> tuple[str, ...]:
        """Every indexed token, most frequent first (workload generators
        draw Zipfian keyword pairs from this)."""
        self._follow_rows()
        totals = {
            token: sum(sum(attrs.values()) for attrs in relations.values())
            for token, relations in self._postings.items()
        }
        return tuple(sorted(totals, key=lambda t: (-totals[t], t)))
