"""Tests for Row and STuple semantics."""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DataError
from repro.data.rows import Row, Shape, STuple


def rowa(tid=1):
    return Row("A", tid, {"x": 1, "s": 0.5})


def rowb(tid=2):
    return Row("B", tid, {"y": 7})


class TestRow:
    def test_getitem(self):
        assert rowa()["x"] == 1

    def test_getitem_missing(self):
        with pytest.raises(DataError):
            rowa()["nope"]

    def test_get_default(self):
        assert rowa().get("nope", 9) == 9

    def test_identity_by_relation_and_tid(self):
        assert Row("A", 1, {"x": 1}) == Row("A", 1, {"x": 999})
        assert Row("A", 1, {}) != Row("A", 2, {})
        assert Row("A", 1, {}) != Row("B", 1, {})

    def test_hashable(self):
        assert len({Row("A", 1, {}), Row("A", 1, {"q": 2})}) == 1


class TestSTuple:
    def test_requires_bindings(self):
        with pytest.raises(DataError):
            STuple({}, {})

    def test_contribs_must_match_bindings(self):
        with pytest.raises(DataError):
            STuple({"a": rowa()}, {"b": 0.5})

    def test_intrinsic_is_sum(self):
        tup = STuple({"a": rowa(), "b": rowb()}, {"a": 0.5, "b": 0.25})
        assert tup.intrinsic == 0.75

    def test_single_constructor(self):
        tup = STuple.single("a", rowa(), 0.5)
        assert tup.intrinsic == 0.5
        assert tup.aliases == frozenset({"a"})

    def test_value_access(self):
        tup = STuple.single("a", rowa(), 0.5)
        assert tup.value("a", "x") == 1

    def test_row_missing_alias(self):
        with pytest.raises(DataError):
            STuple.single("a", rowa(), 0.5).row("z")

    def test_merge_disjoint(self):
        merged = STuple.single("a", rowa(), 0.5).merge(
            STuple.single("b", rowb(), 0.2))
        assert merged.intrinsic == 0.7
        assert merged.aliases == frozenset({"a", "b"})

    def test_merge_overlapping_rejected(self):
        t = STuple.single("a", rowa(), 0.5)
        with pytest.raises(DataError):
            t.merge(STuple.single("a", rowa(2), 0.1))

    def test_provenance_identity(self):
        t1 = STuple.single("a", rowa(), 0.5)
        t2 = STuple.single("a", rowa(), 0.9)  # contribs differ, rows same
        assert t1 == t2
        assert len({t1, t2}) == 1

    def test_shapes_are_interned_and_ordered(self):
        ab = STuple.single("a", rowa(), 0.5).merge(
            STuple.single("b", rowb(), 0.2))
        ba = STuple.single("b", rowb(), 0.2).extend_one("a", rowa(), 0.5)
        assert ab.shape is Shape.of(("a", "b"))
        assert ba.shape is Shape.of(("b", "a"))
        assert ab.shape.index == {"a": 0, "b": 1}
        assert ab == ba and hash(ab) == hash(ba)

    def test_merged_tuple_retains_under_320_bytes(self):
        """The layout's per-tuple cost, the rows and shapes (shared by
        every tuple that binds them) excluded: ~690 B as two dicts and a
        provenance frozenset, ~225 B as four slots over two tuples."""
        n = 5000
        left = [STuple.single("a", Row("A", i, {}), 0.5) for i in range(n)]
        right = [STuple.single("b", Row("B", i, {}), 0.25)
                 .extend_one("c", Row("C", i, {}), 0.125) for i in range(n)]
        left[0].merge(right[0])  # the merged shape, memoized up front
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            merged = [a.merge(bc) for a, bc in zip(left, right)]
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(merged[0].rows) == 3
        assert retained / n <= 320


class DictTuple:
    """The dict-based layout STuple replaced, kept as the reference:
    bindings and contributions as ``alias -> value`` dicts, intrinsic
    summed in insertion order, provenance materialized."""

    def __init__(self, bindings, contribs):
        self.bindings = bindings
        self.contribs = contribs
        self.intrinsic = sum(contribs.values())
        self.provenance = frozenset(
            (alias, row.relation, row.tid) for alias, row in bindings.items())

    def merge(self, other):
        if self.bindings.keys() & other.bindings.keys():
            raise DataError("overlap")
        return DictTuple({**self.bindings, **other.bindings},
                         {**self.contribs, **other.contribs})

    def extend_one(self, alias, row, contrib):
        return self.merge(DictTuple({alias: row}, {alias: contrib}))


ALIASES = "abcde"
#: Decimal fractions and magnitudes far apart, whose sums round
#: differently under another association, plus any finite float.
contributions = st.one_of(
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 1e16, 3.0]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def atoms(draw):
    alias = draw(st.sampled_from(ALIASES))
    row = Row(alias.upper(), draw(st.integers(0, 2)), {})
    return alias, row, draw(contributions)


class TestLayoutAgainstDictReference:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_dict_layout(self, data):
        pool = []
        for alias, row, contrib in data.draw(
                st.lists(atoms(), min_size=1, max_size=4), label="singles"):
            pool.append((STuple.single(alias, row, contrib),
                         DictTuple({alias: row}, {alias: contrib})))
        for _step in range(data.draw(st.integers(0, 12), label="steps")):
            op = data.draw(st.sampled_from(["extend", "merge", "reorder"]))
            tup, ref = data.draw(st.sampled_from(pool))
            if op == "reorder":
                # The same bindings, built in another alias order.
                order = data.draw(st.permutations(list(ref.bindings)))
                built = STuple.single(order[0], ref.bindings[order[0]],
                                      ref.contribs[order[0]])
                for alias in order[1:]:
                    built = built.extend_one(alias, ref.bindings[alias],
                                             ref.contribs[alias])
                pool.append((built, DictTuple(
                    {a: ref.bindings[a] for a in order},
                    {a: ref.contribs[a] for a in order})))
                continue
            if op == "extend":
                alias, row, contrib = data.draw(atoms())
                ref_result = self.attempt(ref.extend_one, alias, row, contrib)
                result = self.attempt(tup.extend_one, alias, row, contrib)
            else:
                other, other_ref = data.draw(st.sampled_from(pool))
                ref_result = self.attempt(ref.merge, other_ref)
                result = self.attempt(tup.merge, other)
            if ref_result is None:
                assert result is None  # both overlapped and raised
            else:
                pool.append((result, ref_result))
        for tup, ref in pool:
            assert tup.shape.aliases == tuple(ref.bindings)
            assert tup.rows == tuple(ref.bindings.values())
            assert tup.contribs == tuple(ref.contribs.values())
            assert tup.intrinsic.hex() == float(ref.intrinsic).hex()
            assert tup.provenance == ref.provenance
            assert hash(tup) == hash(ref.provenance)
        for tup, ref in pool:
            for other, other_ref in pool:
                assert (tup == other) == (ref.provenance
                                          == other_ref.provenance)

    @staticmethod
    def attempt(build, *args):
        try:
            return build(*args)
        except DataError:
            return None
