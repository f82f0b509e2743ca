"""Tests for the collaborative text CRDT."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crdt import TextDocument

from . import envelope_roundtrip


class TestEditing:
    def test_insert_and_read(self):
        doc = TextDocument("a").insert(0, "hello")
        assert doc.text() == "hello"
        assert len(doc) == 5

    def test_insert_middle(self):
        doc = TextDocument("a").insert(0, "hd").insert(1, "el worl")
        assert doc.text() == "hel world"

    def test_insert_positions(self):
        doc = TextDocument("a").insert(0, "ac").insert(1, "b")
        assert doc.text() == "abc"
        doc = doc.insert(3, "!")
        assert doc.text() == "abc!"
        doc = doc.insert(0, ">")
        assert doc.text() == ">abc!"

    def test_append(self):
        doc = TextDocument("a").append("one").append(" two")
        assert doc.text() == "one two"

    def test_insert_out_of_range(self):
        with pytest.raises(IndexError):
            TextDocument("a").insert(1, "x")

    def test_delete(self):
        doc = TextDocument("a").insert(0, "abcdef").delete(1, 3)
        assert doc.text() == "aef"

    def test_delete_bounds(self):
        doc = TextDocument("a").insert(0, "ab")
        with pytest.raises(IndexError):
            doc.delete(1, 5)
        with pytest.raises(ValueError):
            doc.delete(0, -1)

    def test_functional_edits_do_not_mutate(self):
        base = TextDocument("a").insert(0, "base")
        edited = base.insert(4, "!")
        assert base.text() == "base"
        assert edited.text() == "base!"


class TestConcurrentEditing:
    def test_concurrent_appends_do_not_interleave(self):
        shared = TextDocument("origin").insert(0, "start ")
        alice = shared.fork("alice").append("AAA")
        bob = shared.fork("bob").append("BBB")
        merged = alice.merge(bob)
        text = merged.text()
        assert merged.merge(alice).text() == text  # idempotent
        assert bob.merge(alice).text() == text  # commutative
        assert "AAA" in text and "BBB" in text
        assert text.startswith("start ")
        # Runs stay contiguous: never "ABABAB".
        assert text in ("start AAABBB", "start BBBAAA")

    def test_concurrent_insert_and_delete(self):
        shared = TextDocument("origin").insert(0, "abc")
        deleter = shared.fork("deleter").delete(1)  # "ac"
        inserter = shared.fork("inserter").insert(3, "!")  # "abc!"
        merged = deleter.merge(inserter)
        assert merged.text() == "ac!"
        assert inserter.merge(deleter).text() == "ac!"

    def test_three_way_convergence(self):
        shared = TextDocument("origin").insert(0, "doc: ")
        replicas = [shared.fork(name).append(name) for name in ("r1", "r2", "r3")]
        merged_all = replicas[0].merge(replicas[1]).merge(replicas[2])
        other_order = replicas[2].merge(replicas[0]).merge(replicas[1])
        assert merged_all.text() == other_order.text()

    def test_serialization_roundtrip(self):
        doc = TextDocument("a").insert(0, "persist me").delete(0, 2)
        restored = envelope_roundtrip(doc)
        assert restored.text() == doc.text()
        assert restored == doc


@settings(max_examples=60, deadline=None)
@given(
    st.text(alphabet="xyz ", min_size=1, max_size=8),
    st.text(alphabet="abc", min_size=1, max_size=6),
    st.text(alphabet="def", min_size=1, max_size=6),
    st.data(),
)
def test_property_concurrent_edits_converge(base_text, alice_text, bob_text, data):
    shared = TextDocument("origin").insert(0, base_text)
    alice_pos = data.draw(st.integers(0, len(base_text)))
    bob_pos = data.draw(st.integers(0, len(base_text)))
    alice = shared.fork("alice").insert(alice_pos, alice_text)
    bob = shared.fork("bob").insert(bob_pos, bob_text)
    merged_ab = alice.merge(bob)
    merged_ba = bob.merge(alice)
    assert merged_ab.text() == merged_ba.text()
    # Nothing lost: every inserted run appears contiguously.
    assert alice_text in merged_ab.text()
    assert bob_text in merged_ab.text()
    assert len(merged_ab.text()) == len(base_text) + len(alice_text) + len(bob_text)
