"""MVCC validation reads committed versions once per block.

``Peer.prepare_block`` asks the store for every version its MVCC stage can
need in one :meth:`StateStore.get_versions` call.  These tests pin that the
verdicts did not move: random blocks — reads after writes inside the block,
deletes, keys never written — get identical flags and ``CommitWork`` on a
memory peer, a SQLite peer and a telemetry-wrapped SQLite peer, and those
flags equal the rule written out below (``pending`` first, then the
committed state at block start).  A last test counts the distinct SQL
statement shapes the SQLite committer prepares: padded ``IN``-list widths
keep them few however read sets vary.
"""

from __future__ import annotations

import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import ReadItem, ReadWriteSet, ValidationCode, Version, WriteItem
from repro.fabric.block import Block
from repro.fabric.identity import MembershipRegistry
from repro.fabric.store import InstrumentedStore, MemoryStore, SqliteStore
from repro.telemetry import Telemetry

from .helpers import build_peer, endorsed_tx

#: Keys the random blocks touch; the ``ghost-*`` ones are never written.
WRITTEN = [f"key-{i}" for i in range(10)] + ["", "k\x00nul", "clé"]
GHOSTS = ["ghost-1", "ghost-2\x00"]


def three_peers():
    membership = MembershipRegistry()
    memory = build_peer(name="memory", membership=membership, store=MemoryStore())
    sqlite = build_peer(name="sqlite", membership=membership, store=SqliteStore())
    traced = build_peer(name="traced", membership=membership, store=SqliteStore())
    telemetry = Telemetry()
    traced.enable_telemetry(telemetry)
    assert isinstance(traced.ledger.state, InstrumentedStore)
    return [memory, sqlite, traced], telemetry


def random_read_version(rng: random.Random, committed: dict, block_number: int, tx_index: int):
    """Mostly what an endorser would have read; sometimes stale, absent, or
    the version an earlier transaction of this very block writes."""

    roll = rng.random()
    if roll < 0.55:
        return committed
    if roll < 0.7 and tx_index:
        return Version(block_number, rng.randrange(tx_index))
    if roll < 0.85:
        return None
    return Version(rng.randrange(max(block_number, 1)), rng.randrange(4))


def random_block(rng: random.Random, peer, committed: dict, nonces) -> Block:
    number = peer.ledger.height
    txs = []
    for tx_index in range(rng.randint(1, 12)):
        read_keys = rng.sample(WRITTEN + GHOSTS, rng.randint(0, 4))
        reads = [
            ReadItem(key, random_read_version(rng, committed.get(key), number, tx_index))
            for key in read_keys
        ]
        writes = [
            WriteItem(key, b"" if delete else b"%d/%d" % (number, tx_index), is_delete=delete)
            for key in rng.sample(WRITTEN, rng.randint(0, 3))
            for delete in [rng.random() < 0.25]
        ]
        rwset = ReadWriteSet.build(reads=reads, writes=writes)
        txs.append(endorsed_tx(peer, rwset, next(nonces)))
    return Block.build(number, peer.ledger.last_hash, tuple(txs))


def reference_flags(block: Block, committed: dict) -> list[ValidationCode]:
    """Fabric's MVCC rule, written out: a read must see the version left by
    the block's earlier valid writes, else the committed one at block start."""

    pending: dict = {}
    flags = []
    for tx_index, tx in enumerate(block.transactions):
        valid = all(
            read.version == (pending[read.key] if read.key in pending else committed.get(read.key))
            for read in tx.rwset.reads
        )
        flags.append(ValidationCode.VALID if valid else ValidationCode.MVCC_READ_CONFLICT)
        if valid:
            for write in tx.rwset.writes:
                pending[write.key] = None if write.is_delete else Version(block.number, tx_index)
    return flags


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_verdicts_are_identical_on_every_store_and_match_the_rule(seed):
    rng = random.Random(seed)
    peers, telemetry = three_peers()
    nonces = iter(range(1, 10**6))
    mvcc_blocks = 0
    try:
        for _ in range(6):
            committed = peers[0].ledger.state.snapshot_versions()
            block = random_block(rng, peers[0], committed, nonces)
            prepared = [peer.prepare_block(block) for peer in peers]
            flags = [list(p.metadata.flags) for p in prepared]
            assert flags[1] == flags[0] and flags[2] == flags[0]
            assert prepared[1].work == prepared[0].work == prepared[2].work
            assert flags[0] == reference_flags(block, committed)
            mvcc_blocks += any(tx.rwset.reads for tx in block.transactions)
            for peer, ready in zip(peers, prepared):
                peer.apply_prepared(ready)
            assert len({peer.ledger.state.fingerprint() for peer in peers}) == 1
        # The wrapped store stayed on the bulk path: one timed version read
        # per block that had reads, no point reads at all.
        versions = telemetry.metrics.get("repro_store_get_versions_seconds")
        gets = telemetry.metrics.get("repro_store_get_seconds")
        labels = {"node": peers[2].name, "backend": "sqlite"}
        assert versions.count(**labels) == mvcc_blocks
        assert gets.count(**labels) == 0
    finally:
        for peer in peers:
            peer.ledger.state.close()


#: A bound literal in the traced SQL (BLOB, string, integer) -> ``?``.
_LITERAL = re.compile(r"[xX]'[0-9a-fA-F]*'|'(?:[^']|'')*'|-?\b\d+\b")


def test_the_sqlite_committer_prepares_few_statement_shapes():
    rng = random.Random(25)
    membership = MembershipRegistry()
    peer = build_peer(name="sqlite", membership=membership, store=SqliteStore())
    pool = [f"dev-{i:04d}" for i in range(600)]
    seed = Block.build(
        0, peer.ledger.last_hash,
        (endorsed_tx(peer, ReadWriteSet.build(writes=[WriteItem(k, b"0") for k in pool]), 0),),
    )
    peer.validate_and_commit(seed)

    shapes: set[str] = set()
    connection = peer.ledger.state._conn
    read_set_sizes = set()
    for nonce in range(1, 51):
        committed = peer.ledger.state.snapshot_versions()
        reads_per_tx = 1 + nonce % 7
        txs = []
        for _ in range(1 + nonce % 40):
            keys = rng.sample(pool, reads_per_tx)
            delete = rng.random() < 0.1
            rwset = ReadWriteSet.build(
                reads=[ReadItem(k, committed.get(k)) for k in keys],
                writes=[WriteItem(keys[0], b"" if delete else b"%d" % nonce, is_delete=delete)],
            )
            txs.append(endorsed_tx(peer, rwset, nonce * 1000 + len(txs)))
        read_set_sizes.add(len({read.key for tx in txs for read in tx.rwset.reads}))
        block = Block.build(peer.ledger.height, peer.ledger.last_hash, tuple(txs))
        connection.set_trace_callback(lambda sql: shapes.add(_LITERAL.sub("?", sql)))
        peer.validate_and_commit(block)
        connection.set_trace_callback(None)
    peer.ledger.state.close()

    # Exact-width IN-lists would prepare one statement per distinct size.
    assert len(read_set_sizes) > 30
    assert any("IN (" in shape for shape in shapes)
    assert len(shapes) <= 12, sorted(shapes)
