"""Property tests: the state DB against brute-force oracles.

Range scans are checked against sorted-key slicing, the Mango selector
subset against a naive re-evaluation, and write/delete sequences against a
plain dict — so the bisect-maintained key index can never drift from the
actual mapping.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.serialization import to_bytes
from repro.common.types import Version
from repro.fabric.store import MemoryStore

keys = st.text(alphabet="abcdxyz/0123", min_size=1, max_size=6)


@st.composite
def write_sequences(draw):
    """A mixed sequence of writes and deletes with increasing versions."""

    operations = draw(
        st.lists(
            st.tuples(keys, st.integers(0, 99), st.booleans()),
            min_size=1,
            max_size=30,
        )
    )
    return operations


def apply_all(operations):
    db = MemoryStore()
    oracle: dict[str, int] = {}
    for index, (key, value, is_delete) in enumerate(operations):
        if is_delete:
            db.apply_write(key, b"", Version(0, index), is_delete=True)
            oracle.pop(key, None)
        else:
            db.apply_write(key, to_bytes({"n": value}), Version(0, index))
            oracle[key] = value
    return db, oracle


@settings(max_examples=100, deadline=None)
@given(write_sequences())
def test_key_index_matches_mapping(operations):
    db, oracle = apply_all(operations)
    assert list(db.keys()) == sorted(oracle)
    assert len(db) == len(oracle)
    for key, value in oracle.items():
        assert db.get_value(key) == to_bytes({"n": value})


@settings(max_examples=100, deadline=None)
@given(write_sequences(), keys, keys)
def test_range_scan_matches_sorted_slice(operations, start, end):
    db, oracle = apply_all(operations)
    scanned = [key for key, _ in db.range_scan(start, end)]
    expected = [key for key in sorted(oracle) if key >= start and (not end or key < end)]
    assert scanned == expected


@settings(max_examples=100, deadline=None)
@given(write_sequences(), keys)
def test_open_ended_range(operations, start):
    db, oracle = apply_all(operations)
    scanned = [key for key, _ in db.range_scan(start, "")]
    assert scanned == [key for key in sorted(oracle) if key >= start]


@settings(max_examples=100, deadline=None)
@given(write_sequences(), st.integers(0, 99), st.sampled_from(["$gt", "$gte", "$lt", "$lte", "$eq", "$ne"]))
def test_mango_comparisons_match_oracle(operations, threshold, operator):
    db, oracle = apply_all(operations)
    results = {key for key, _ in db.rich_query({"n": {operator: threshold}})}
    compare = {
        "$gt": lambda v: v > threshold,
        "$gte": lambda v: v >= threshold,
        "$lt": lambda v: v < threshold,
        "$lte": lambda v: v <= threshold,
        "$eq": lambda v: v == threshold,
        "$ne": lambda v: v != threshold,
    }[operator]
    expected = {key for key, value in oracle.items() if compare(value)}
    assert results == expected


@settings(max_examples=60, deadline=None)
@given(write_sequences(), st.integers(0, 99), st.integers(0, 99))
def test_mango_or_matches_union(operations, a, b):
    db, oracle = apply_all(operations)
    results = {key for key, _ in db.rich_query({"$or": [{"n": a}, {"n": b}]})}
    expected = {key for key, value in oracle.items() if value in (a, b)}
    assert results == expected


@settings(max_examples=60, deadline=None)
@given(write_sequences())
def test_versions_reflect_last_write(operations):
    db, _ = apply_all(operations)
    last_write_index: dict[str, int] = {}
    for index, (key, _, is_delete) in enumerate(operations):
        if is_delete:
            last_write_index.pop(key, None)
        else:
            last_write_index[key] = index
    for key, index in last_write_index.items():
        assert db.get_version(key) == Version(0, index)
