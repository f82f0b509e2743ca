"""Tests for the LWW register."""

from repro.common.clock import LamportTimestamp
from repro.crdt import LWWRegister

from . import envelope_roundtrip


def ts(counter, actor="a"):
    return LamportTimestamp(counter, actor)


class TestLWWRegister:
    def test_highest_timestamp_wins(self):
        reg = LWWRegister().assign("old", ts(1))
        merged = reg.merge(LWWRegister().assign("new", ts(2)))
        assert merged.value() == "new"

    def test_tie_broken_by_actor(self):
        left = LWWRegister().assign("from-a", ts(1, "a"))
        right = LWWRegister().assign("from-b", ts(1, "b"))
        assert left.merge(right).value() == "from-b"
        assert right.merge(left).value() == "from-b"  # commutative

    def test_empty_register(self):
        assert LWWRegister().value() is None
        assert LWWRegister().merge(LWWRegister()).value() is None

    def test_empty_loses_to_any_write(self):
        written = LWWRegister().assign("x", ts(1))
        assert LWWRegister().merge(written).value() == "x"
        assert written.merge(LWWRegister()).value() == "x"

    def test_roundtrip(self):
        reg = LWWRegister().assign({"doc": 1}, ts(5, "p"))
        restored = envelope_roundtrip(reg)
        assert restored == reg
        assert restored.stamp == ts(5, "p")
