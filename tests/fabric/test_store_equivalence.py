"""Property tests: the memory and the SQLite backend are one store.

The same random batch sequences go into a :class:`MemoryStore` and a
:class:`SqliteStore`; after every batch both must answer every read alike
and carry the same (and correctly maintained) fingerprint.  The batches mix
same-key overwrites, deletes of present and absent keys, keys with
``\\x00``, non-ASCII text and ``""``, and bulk batches of 700+ writes that
cross the SQLite store's ``IN``-list chunk width.  The SQLite-only
properties — a failing batch leaves nothing behind, a reopened file holds
everything — are checked beside them.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import Version
from repro.fabric.store import MemoryStore, SqliteStore, WriteBatch
from repro.fabric.store.batch import BatchWrite

SPECIAL_KEYS = ("", "\x00", "a\x00b", "\x00obj\x00k\x00", "é", "日本語", "k€", "z" * 40)

keys = st.one_of(
    st.sampled_from(SPECIAL_KEYS),
    st.sampled_from([f"k{i}" for i in range(8)]),
    st.text(max_size=5),
)
values = st.binary(max_size=12)
#: (key, value, is_delete) — a delete's value is ignored.
writes = st.tuples(keys, values, st.booleans())


@st.composite
def batch_plans(draw) -> list[tuple[str, bytes, bool]]:
    """One block's writes: a few random ones, sometimes 700+ bulk writes."""

    plan = draw(st.lists(writes, max_size=20))
    if draw(st.integers(0, 3)) == 0:
        count = draw(st.integers(700, 760))
        span = draw(st.sampled_from([250, 600, 1100]))  # < count: in-batch overwrites
        for i in range(count):
            plan.append((f"bulk-{(i * 7919) % span}", b"%d" % i, i % 11 == 0))
        plan.extend(draw(st.lists(writes, max_size=5)))
    return plan


def make_batch(number: int, plan) -> WriteBatch:
    batch = WriteBatch(block_number=number)
    for tx, (key, value, is_delete) in enumerate(plan):
        batch.put(key, b"" if is_delete else value, Version(number, tx), is_delete)
    return batch


def touched(plans) -> set[str]:
    return {key for plan in plans for key, _, _ in plan}


def assert_same(memory: MemoryStore, sqlite: SqliteStore, probe: set[str]) -> None:
    assert sqlite.snapshot_versions() == memory.snapshot_versions()
    assert sqlite.keys() == memory.keys()
    assert len(sqlite) == len(memory)
    for key in probe:
        assert sqlite.get(key) == memory.get(key), key
    assert sqlite.fingerprint() == memory.fingerprint()
    assert memory.fingerprint() == memory.compute_fingerprint()
    assert sqlite.fingerprint() == sqlite.compute_fingerprint()


@settings(max_examples=40, deadline=None)
@given(st.lists(batch_plans(), min_size=1, max_size=5))
def test_batch_sequences_leave_both_backends_identical(plans):
    memory, sqlite = MemoryStore(), SqliteStore()
    try:
        for number, plan in enumerate(plans):
            batch = make_batch(number, plan)
            memory.apply_batch(batch)
            sqlite.apply_batch(batch)
            assert_same(memory, sqlite, touched(plans[: number + 1]) | {"never-written"})
    finally:
        sqlite.close()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(batch_plans(), min_size=1, max_size=3),
    st.lists(keys, max_size=30),
    st.integers(0, 1100),
)
def test_get_versions_equals_point_reads(plans, asked, bulk_asked):
    memory, sqlite = MemoryStore(), SqliteStore()
    try:
        for number, plan in enumerate(plans):
            batch = make_batch(number, plan)
            memory.apply_batch(batch)
            sqlite.apply_batch(batch)
        # Duplicates, missing keys and, often, more than 1 000 keys.
        query = asked + asked[:3] + [f"bulk-{i}" for i in range(bulk_asked)] + ["missing\x00"]
        expected = {key: memory.get_version(key) for key in query}
        assert memory.get_versions(query) == expected
        assert sqlite.get_versions(query) == expected
        assert sqlite.get_versions(iter(query)) == expected
        assert sqlite.get_versions([]) == {}
    finally:
        sqlite.close()


class _BytesButNotBindable:
    """Passes the fingerprint digest (``__bytes__``) but SQLite cannot bind
    it, so the batch fails inside its ``executemany``."""

    def __bytes__(self) -> bytes:
        return b"x"


@settings(max_examples=30, deadline=None)
@given(
    st.lists(batch_plans(), min_size=1, max_size=3),
    batch_plans(),
    st.sampled_from([{"not": "bytes"}, _BytesButNotBindable()]),
    st.floats(0.0, 1.0),
)
def test_a_failing_batch_changes_nothing_and_the_store_stays_usable(
    plans, after, bad_value, position
):
    memory, sqlite = MemoryStore(), SqliteStore()
    try:
        for number, plan in enumerate(plans):
            batch = make_batch(number, plan)
            memory.apply_batch(batch)
            sqlite.apply_batch(batch)
        fingerprint, snapshot = sqlite.fingerprint(), sqlite.snapshot_versions()

        bad = make_batch(len(plans), [("fresh-key", b"v", False), ("k1", b"w", False)])
        at = int(position * len(bad.writes))
        bad.writes.insert(at, BatchWrite("boom", bad_value, Version(len(plans), 99)))
        with pytest.raises(Exception):
            sqlite.apply_batch(bad)
        assert sqlite.fingerprint() == fingerprint
        assert sqlite.snapshot_versions() == snapshot
        assert sqlite.fingerprint() == sqlite.compute_fingerprint()

        batch = make_batch(len(plans) + 1, after)
        memory.apply_batch(batch)
        sqlite.apply_batch(batch)
        assert_same(memory, sqlite, touched([*plans, after]) | {"fresh-key", "boom"})
    finally:
        sqlite.close()


@settings(max_examples=20, deadline=None)
@given(st.lists(batch_plans(), min_size=1, max_size=4))
def test_close_and_reopen_preserves_everything(plans):
    memory = MemoryStore()
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "state.sqlite")
        first = SqliteStore(path)
        for number, plan in enumerate(plans):
            batch = make_batch(number, plan)
            memory.apply_batch(batch)
            first.apply_batch(batch)
        first.close()
        reopened = SqliteStore(path)
        try:
            assert_same(memory, reopened, touched(plans))
            assert reopened.get_versions(touched(plans)) == memory.get_versions(touched(plans))
        finally:
            reopened.close()
