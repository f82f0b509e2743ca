"""Tests for OR-Set semantics."""

from repro.crdt import ORSet

from . import envelope_roundtrip


class TestORSet:
    def test_add_remove_readd(self):
        orset = ORSet().add("a", "t1").remove("a")
        assert "a" not in orset
        orset = orset.add("a", "t2")
        assert "a" in orset  # a fresh tag re-adds

    def test_add_wins_over_concurrent_remove(self):
        base = ORSet().add("x", "t1")
        removed = base.remove("x")  # observed only t1
        readded = base.add("x", "t2")  # concurrent add with a fresh tag
        merged = removed.merge(readded)
        assert "x" in merged  # t2 survives: add-wins
        assert merged == readded.merge(removed)

    def test_remove_only_observed_tags(self):
        base = ORSet().add("x", "t1")
        other = ORSet().add("x", "t2")
        removed = base.remove("x")
        merged = removed.merge(other)
        assert "x" in merged

    def test_empty_tag_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            ORSet().add("x", "")

    def test_value_deterministic_order(self):
        orset = ORSet().add("b", "1").add("a", "2")
        assert orset.value() == ["a", "b"]

    def test_roundtrip(self):
        orset = ORSet().add("a", "t1").add({"j": 1}, "t2").remove("a")
        assert envelope_roundtrip(orset) == orset
