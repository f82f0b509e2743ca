"""Tests for the RGA list CRDT."""

import pytest

from repro.common.clock import LamportTimestamp
from repro.common.serialization import from_bytes, to_bytes
from repro.crdt import HEAD, RGA


def ts(counter, actor="a"):
    return LamportTimestamp(counter, actor)


class TestInsertion:
    def test_append_order(self):
        rga = RGA().append(ts(1), "a").append(ts(2), "b").append(ts(3), "c")
        assert list(rga) == ["a", "b", "c"]

    def test_insert_after_middle(self):
        rga = RGA().append(ts(1), "a").append(ts(2), "c")
        rga = rga.insert_after(ts(1), ts(3), "b")
        assert list(rga) == ["a", "b", "c"]

    def test_insert_at_head(self):
        rga = RGA().append(ts(1), "b").insert_after(HEAD, ts(2), "a")
        assert list(rga) == ["a", "b"]

    def test_concurrent_inserts_same_anchor_newest_first(self):
        rga = RGA().append(ts(1), "x")
        left = rga.insert_after(ts(1), ts(2, "a"), "A")
        right = rga.insert_after(ts(1), ts(2, "b"), "B")
        merged = left.merge(right)
        # RGA orders concurrent siblings by descending ID: (2,b) > (2,a).
        assert list(merged) == ["x", "B", "A"]
        assert list(right.merge(left)) == ["x", "B", "A"]

    def test_duplicate_id_same_content_idempotent(self):
        rga = RGA().append(ts(1), "a")
        again = rga.insert_after(HEAD, ts(1), "a")
        assert list(again) == ["a"]

    def test_duplicate_id_different_content_rejected(self):
        rga = RGA().append(ts(1), "a")
        with pytest.raises(ValueError):
            rga.insert_after(HEAD, ts(1), "different")

    def test_unknown_anchor_rejected(self):
        with pytest.raises(ValueError):
            RGA().insert_after(ts(9), ts(1), "x")


class TestDeletion:
    def test_delete_hides_element(self):
        rga = RGA().append(ts(1), "a").append(ts(2), "b").delete(ts(1))
        assert list(rga) == ["b"]
        assert len(rga) == 1

    def test_tombstone_keeps_anchor_usable(self):
        rga = RGA().append(ts(1), "a").delete(ts(1))
        rga = rga.insert_after(ts(1), ts(2), "b")  # anchor on a tombstone
        assert list(rga) == ["b"]

    def test_delete_unknown_rejected(self):
        with pytest.raises(ValueError):
            RGA().delete(ts(1))

    def test_delete_idempotent(self):
        rga = RGA().append(ts(1), "a").delete(ts(1)).delete(ts(1))
        assert list(rga) == []


class TestMerge:
    def test_merge_union_of_cells(self):
        shared = RGA().append(ts(1), "base")
        left = shared.insert_after(ts(1), ts(2, "a"), "L")
        right = shared.insert_after(ts(1), ts(2, "b"), "R")
        merged = left.merge(right)
        assert sorted(merged) == ["L", "R", "base"]

    def test_merge_propagates_tombstones(self):
        shared = RGA().append(ts(1), "a").append(ts(2), "b")
        deleted = shared.delete(ts(1))
        merged = shared.merge(deleted)
        assert list(merged) == ["b"]
        assert list(deleted.merge(shared)) == ["b"]

    def test_interleaving_deterministic(self):
        # Two replicas each append runs of elements concurrently; all
        # replicas must converge on one interleaving.
        shared = RGA().append(ts(1), "s")
        left = shared
        for i, ch in enumerate("LMN"):
            left = left.append(ts(10 + i, "a"), ch)
        right = shared
        for i, ch in enumerate("XYZ"):
            right = right.append(ts(10 + i, "b"), ch)
        assert list(left.merge(right)) == list(right.merge(left))

    def test_element_ids_and_last_visible(self):
        rga = RGA().append(ts(1), "a").append(ts(2), "b").delete(ts(2))
        assert rga.element_ids() == [ts(1)]
        assert rga.element_ids(include_deleted=True) == [ts(1), ts(2)]
        assert rga.last_visible_id() == ts(1)

    def test_roundtrip(self):
        rga = RGA().append(ts(1), "a").append(ts(2), {"obj": True}).delete(ts(1))
        assert RGA.from_dict(from_bytes(to_bytes(rga.to_dict()))) == rga
