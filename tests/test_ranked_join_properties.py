"""Property: the ranked-join core is an exact, lazy top-n join.

Draws one to three ranked inputs, each read to a random prefix length,
and an optional probe target, joined in a chain on ``x``.  Under either
order of held results (arrival, as in the plan graph, or sorted
provenance, as at a site) the core's output must be the brute-force
join of the prefixes, each result once, in nonincreasing score order,
and every prefix of the output an exact top-n of that join.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.rows import Row, STuple
from repro.operators.access import AccessModule
from repro.operators.ranked_join import ProbeTarget, RankedJoin
from repro.plan.expressions import JoinPred

ALIASES = ("A", "B", "C")

#: One relation: (join key, score) rows.  Scores sit on a coarse grid,
#: so many results tie.
rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=10).map(lambda i: i / 10)),
    max_size=6)


def ranked(alias, drawn):
    ordered = sorted(drawn, key=lambda r: -r[1])
    return [STuple.single(alias, Row(alias, tid, {"x": key}), score)
            for tid, (key, score) in enumerate(ordered)]


def brute_force(parts, joins):
    out = set()
    for combo in itertools.product(*parts):
        if all(combo_value(combo, p.left_alias) == combo_value(
                combo, p.right_alias) for p in joins):
            result = combo[0]
            for tup in combo[1:]:
                result = result.merge(tup)
            out.add(result)
    return out


def combo_value(combo, alias):
    (tup,) = [t for t in combo if alias in t.aliases]
    return tup.value(alias, "x")


@given(st.lists(st.tuples(rows, st.integers(min_value=0, max_value=6)),
                min_size=1, max_size=3),
       st.one_of(st.none(), rows), st.booleans())
@settings(max_examples=80, deadline=None)
def test_core_is_an_exact_top_n_of_the_prefix_join(drawn, probed, by_key):
    aliases = ALIASES[:len(drawn)]
    prefixes = [ranked(alias, table)[:length]
                for alias, (table, length) in zip(aliases, drawn)]
    joins = [JoinPred.normalized(left, "x", right, "x")
             for left, right in zip(aliases, aliases[1:])]
    probes, parts, probe_cap = [], list(prefixes), 0.0
    if probed is not None:
        module = AccessModule("P")
        for tup in ranked("P", probed):
            module.insert(tup)
        probes.append(ProbeTarget("P", frozenset({"P"}), "module",
                                  module=module))
        parts.append(ranked("P", probed))
        joins.append(JoinPred.normalized("A", "x", "P", "x"))
        probe_cap = 1.0
    core = RankedJoin(
        joins,
        [ProbeTarget.over_prefix(alias, frozenset({alias}), prefix)
         for alias, prefix in zip(aliases, prefixes)],
        probes, probe_cap=probe_cap,
        key=(lambda t: tuple(sorted(t.provenance))) if by_key else None)

    out = []
    while (tup := core.result(len(out))) is not None:
        out.append(tup)

    expected = brute_force(parts, joins)
    assert set(out) == expected
    assert len(out) == len(expected)
    scores = [round(t.intrinsic, 9) for t in out]
    assert scores == sorted(scores, reverse=True)
    for n in range(1, len(out) + 1):
        # Nothing left out of the first n beats the n-th.
        rest = expected - set(out[:n])
        assert all(round(t.intrinsic, 9) <= scores[n - 1] for t in rest)


def test_core_reads_only_as_deep_as_the_first_result_needs():
    """Two inputs whose top tuples join: the first result needs one
    tuple from each, and no more is read while the next tuples' corner
    stays below it."""
    a = ranked("A", [(1, 1.0), (2, 0.2), (1, 0.1)])
    b = ranked("B", [(1, 1.0), (2, 0.2), (2, 0.1)])
    core = RankedJoin(
        [JoinPred.normalized("A", "x", "B", "x")],
        [ProbeTarget.over_prefix("A", frozenset({"A"}), a),
         ProbeTarget.over_prefix("B", frozenset({"B"}), b)])
    assert core.result(0).intrinsic == 2.0
    assert [t.module.size for t in core.inputs] == [1, 1]
