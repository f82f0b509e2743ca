"""Tests for the versioned world state and the Mango query subset."""

import pytest

from repro.common.errors import StateError
from repro.common.serialization import to_bytes
from repro.common.types import Version
from repro.fabric.store import MemoryStore, compile_selector
from repro.fabric.store import WriteBatch


def put(db, key, value, block=0, tx=0):
    db.apply_write(key, to_bytes(value), Version(block, tx))


class TestVersionedStore:
    def test_get_and_version(self):
        db = MemoryStore()
        put(db, "k", {"a": 1}, block=2, tx=5)
        entry = db.get("k")
        assert entry.version == Version(2, 5)
        assert db.get_version("k") == Version(2, 5)
        assert db.get_value("missing") is None

    def test_overwrite_bumps_version(self):
        db = MemoryStore()
        put(db, "k", {"a": 1}, block=0, tx=0)
        put(db, "k", {"a": 2}, block=1, tx=3)
        assert db.get_version("k") == Version(1, 3)

    def test_delete_removes_key(self):
        db = MemoryStore()
        put(db, "k", {"a": 1})
        db.apply_write("k", b"", Version(1, 0), is_delete=True)
        assert "k" not in db
        assert db.get_version("k") is None
        assert "k" not in db.keys()

    def test_delete_missing_is_noop(self):
        db = MemoryStore()
        db.apply_write("ghost", b"", Version(0, 0), is_delete=True)
        assert len(db) == 0

    def test_keys_sorted(self):
        db = MemoryStore()
        for key in ("b", "a", "c"):
            put(db, key, {})
        assert db.keys() == ("a", "b", "c")

    def test_apply_batch(self):
        db = MemoryStore()
        batch = WriteBatch(block_number=0)
        batch.put("a", b"1", Version(0, 0))
        batch.put("b", b"2", Version(0, 0))
        db.apply_batch(batch)
        assert len(db) == 2


class TestRangeScan:
    def test_half_open_range(self):
        db = MemoryStore()
        for key in ("a1", "a2", "a3", "b1"):
            put(db, key, {})
        keys = [key for key, _ in db.range_scan("a1", "a3")]
        assert keys == ["a1", "a2"]

    def test_open_end(self):
        db = MemoryStore()
        for key in ("a", "b", "c"):
            put(db, key, {})
        keys = [key for key, _ in db.range_scan("b", "")]
        assert keys == ["b", "c"]


class TestMangoQueries:
    def _populated(self):
        db = MemoryStore()
        put(db, "d1", {"type": "sensor", "temp": 20, "loc": {"room": "A"}})
        put(db, "d2", {"type": "sensor", "temp": 30, "loc": {"room": "B"}})
        put(db, "d3", {"type": "gateway", "temp": 25})
        return db

    def test_equality(self):
        db = self._populated()
        assert [k for k, _ in db.rich_query({"type": "sensor"})] == ["d1", "d2"]

    def test_comparison_operators(self):
        db = self._populated()
        assert [k for k, _ in db.rich_query({"temp": {"$gt": 22}})] == ["d2", "d3"]
        assert [k for k, _ in db.rich_query({"temp": {"$lte": 25}})] == ["d1", "d3"]
        assert [k for k, _ in db.rich_query({"temp": {"$ne": 25}})] == ["d1", "d2"]

    def test_dotted_paths(self):
        db = self._populated()
        assert [k for k, _ in db.rich_query({"loc.room": "B"})] == ["d2"]

    def test_in_operator(self):
        db = self._populated()
        assert [k for k, _ in db.rich_query({"temp": {"$in": [20, 25]}})] == ["d1", "d3"]

    def test_and_or_not(self):
        db = self._populated()
        selector = {"$or": [{"temp": 20}, {"type": "gateway"}]}
        assert [k for k, _ in db.rich_query(selector)] == ["d1", "d3"]
        selector = {"$and": [{"type": "sensor"}, {"temp": {"$gt": 25}}]}
        assert [k for k, _ in db.rich_query(selector)] == ["d2"]
        selector = {"$not": {"type": "sensor"}}
        assert [k for k, _ in db.rich_query(selector)] == ["d3"]

    def test_exists(self):
        db = self._populated()
        assert [k for k, _ in db.rich_query({"loc": {"$exists": True}})] == ["d1", "d2"]
        assert [k for k, _ in db.rich_query({"loc": {"$exists": False}})] == ["d3"]

    def test_limit(self):
        db = self._populated()
        assert len(db.rich_query({"temp": {"$gt": 0}}, limit=2)) == 2

    def test_type_mismatch_never_matches(self):
        db = self._populated()
        assert db.rich_query({"type": {"$gt": 5}}) == []

    def test_non_json_values_skipped(self):
        db = self._populated()
        db.apply_write("binary", b"\xff\xfe", Version(1, 0))
        assert len(db.rich_query({"temp": {"$gte": 0}})) == 3

    def test_invalid_selectors_rejected(self):
        with pytest.raises(StateError):
            compile_selector({"$and": "not-a-list"})
        with pytest.raises(StateError):
            compile_selector({"$unknown": []})
        db = self._populated()
        with pytest.raises(StateError):
            db.rich_query({"temp": {"$in": 5}})
