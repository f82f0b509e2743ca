"""Tests for G-Counter and PN-Counter."""

import pytest

from repro.common.errors import MergeTypeError
from repro.crdt import GCounter, ORSet, PNCounter

from . import envelope_roundtrip


class TestGCounter:
    def test_empty_value(self):
        assert GCounter().value() == 0

    def test_increment_is_functional(self):
        base = GCounter()
        bumped = base.increment("a", 3)
        assert base.value() == 0
        assert bumped.value() == 3

    def test_merge_takes_per_actor_max(self):
        # Two replicas that both saw a=2, then diverged.
        shared = GCounter().increment("a", 2)
        left = shared.increment("a", 1)  # a=3
        right = shared.increment("b", 5)  # a=2, b=5
        merged = left.merge(right)
        assert merged.value() == 8
        assert merged.actor_count("a") == 3
        assert merged.actor_count("b") == 5

    def test_decrement_rejected(self):
        with pytest.raises(ValueError):
            GCounter().increment("a", -1)

    def test_negative_state_rejected(self):
        with pytest.raises(ValueError):
            GCounter({"a": -5})

    @pytest.mark.parametrize("count", [1.5, 2.0, True, "3", None])
    def test_counts_are_exactly_ints(self, count):
        # 1.5 used to be truncated to 1 and True counted as 1.
        with pytest.raises(ValueError):
            GCounter({"a": count})
        with pytest.raises(ValueError):
            PNCounter.from_dict({"p": {"entries": {}}, "n": {"entries": {"a": count}}})

    def test_merge_type_mismatch(self):
        with pytest.raises(MergeTypeError):
            GCounter().merge(ORSet())

    def test_serialization_roundtrip(self):
        counter = GCounter().increment("a", 2).increment("b", 7)
        assert envelope_roundtrip(counter) == counter

    def test_envelope_type_check(self):
        counter = GCounter().increment("a")
        with pytest.raises(MergeTypeError):
            PNCounter().merge(envelope_roundtrip(counter))


class TestPNCounter:
    def test_increment_and_decrement(self):
        counter = PNCounter().increment("a", 10).decrement("b", 4)
        assert counter.value() == 6

    def test_negative_amounts_flip(self):
        assert PNCounter().increment("a", -3).value() == -3
        assert PNCounter().decrement("a", -3).value() == 3

    def test_merge_concurrent(self):
        base = PNCounter().increment("a", 5)
        left = base.decrement("a", 2)  # 3
        right = base.increment("b", 1)  # 6
        merged = left.merge(right)
        assert merged.value() == 4  # 5 - 2 + 1
        assert merged == right.merge(left)

    def test_roundtrip(self):
        counter = PNCounter().increment("x", 3).decrement("y", 1)
        assert envelope_roundtrip(counter) == counter
