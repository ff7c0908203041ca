"""Tests for insertion-ordered access modules."""

import pytest

from repro.common.errors import StateError
from repro.data.rows import Row, STuple
from repro.operators.access import AccessModule


def tup(tid, x, score=0.5, alias="a"):
    return STuple.single(alias, Row("R", tid, {"x": x}), score)


class TestAccessModule:
    def test_insert_and_probe(self):
        module = AccessModule("m", (("a", "x"),))
        module.insert(tup(1, 10))
        module.insert(tup(2, 10))
        module.insert(tup(3, 20))
        assert len(module.probe("a", "x", 10)) == 2
        assert len(module.probe("a", "x", 99)) == 0

    def test_probe_unindexed_rejected(self):
        module = AccessModule("m")
        module.insert(tup(1, 10))
        with pytest.raises(StateError):
            module.probe("a", "x", 10)

    def test_ensure_index_retroactive(self):
        module = AccessModule("m")
        module.insert(tup(1, 10))
        module.insert(tup(2, 20))
        module.ensure_index("a", "x")
        assert len(module.probe("a", "x", 10)) == 1

    def test_ensure_index_idempotent(self):
        module = AccessModule("m", (("a", "x"),))
        module.insert(tup(1, 10))
        module.ensure_index("a", "x")
        assert len(module.probe("a", "x", 10)) == 1

    def test_replay_order_is_arrival_order(self):
        module = AccessModule("m")
        order = [tup(3, 1, 0.9), tup(1, 2, 0.8), tup(2, 3, 0.7)]
        for t in order:
            module.insert(t)
        assert module.replay() == order
        assert module.size == 3

    def test_clear(self):
        module = AccessModule("m", (("a", "x"),))
        module.insert(tup(1, 10))
        module.insert(tup(2, 10))
        assert module.clear() == 2
        assert module.size == 0
        assert module.probe("a", "x", 10) == []
        assert module.replay() == []

    def test_ranked_replay_is_the_log_while_ranked(self):
        module = AccessModule("m")
        for tid, score in ((1, 0.9), (2, 0.5), (3, 0.5)):
            module.insert(tup(tid, 10, score))
        ranked = module.ranked_replay()
        module.insert(tup(4, 10, 0.1))
        # Inserts only append: the prefix a reader took stays as it was.
        assert [t.intrinsic for t in ranked[:3]] == [0.9, 0.5, 0.5]

    def test_ranked_replay_sorts_an_unranked_log(self):
        module = AccessModule("m")
        for tid, score in ((1, 0.2), (2, 0.9), (3, 0.5)):
            module.insert(tup(tid, 10, score))
        assert [t.intrinsic for t in module.ranked_replay()] \
            == [0.9, 0.5, 0.2]
        assert [t.intrinsic for t in module.replay()] == [0.2, 0.9, 0.5]
        module.clear()
        module.insert(tup(4, 10, 0.3))
        assert module.ranked_replay() == module.replay()

