"""The ledger's position indexes answer exactly what copying indexes did.

``Ledger`` keeps, per transaction id and per key, positions into the chain
and builds ``KeyModification`` entries on read.  ``CopyingIndexes`` below is
the ledger's former ``append_block`` bookkeeping, kept here as the
reference: it copies a ``(block, index)`` tuple per transaction and a
``KeyModification`` per applied write.  Hypothesis builds chains with
duplicate tx ids, one key written many times in a block (and twice by one
transaction), deletes, invalid transactions, empty blocks, and both vanilla
(``effective_writes=None``) and CRDT-replaced blocks; every query must match.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import LedgerError
from repro.common.serialization import from_bytes
from repro.common.types import (
    KeyModification,
    ReadWriteSet,
    ValidationCode,
    Version,
    WriteItem,
)
from repro.core.peer import CRDTPeer
from repro.fabric.block import Block, BlockMetadata, CommittedBlock
from repro.fabric.ledger import Ledger
from repro.fabric.transaction import Proposal, TransactionEnvelope

from .helpers import build_peer, endorsed_tx, write_rwset

KEYS = ("a", "b", "c", "d")
CODES = (
    ValidationCode.VALID,
    ValidationCode.VALID,
    ValidationCode.MVCC_READ_CONFLICT,
    ValidationCode.DUPLICATE_TXID,
    ValidationCode.BAD_PAYLOAD,
)


class CopyingIndexes:
    """The reference: the tx index and key history as copies."""

    def __init__(self) -> None:
        self.blocks: list[CommittedBlock] = []
        self.tx_index: dict[str, tuple[int, int]] = {}
        self.history: dict[str, list[KeyModification]] = {}

    def append_block(self, committed: CommittedBlock) -> None:
        block = committed.block
        self.blocks.append(committed)
        for tx_index, tx in enumerate(block.transactions):
            self.tx_index.setdefault(tx.tx_id, (block.number, tx_index))
        for tx_index, write in committed.writes_applied():
            tx = block.transactions[tx_index]
            self.history.setdefault(write.key, []).append(
                KeyModification(
                    tx_id=tx.tx_id,
                    value=write.value,
                    is_delete=write.is_delete,
                    version=Version(block.number, tx_index),
                )
            )

    def history_for_key(self, key: str) -> tuple[KeyModification, ...]:
        return tuple(self.history.get(key, ()))

    def has_transaction(self, tx_id: str) -> bool:
        return tx_id in self.tx_index

    def transaction_status(self, tx_id: str):
        location = self.tx_index.get(tx_id)
        if location is None:
            return None
        block_num, tx_index = location
        return self.blocks[block_num].metadata.code_for(tx_index)


def _tx(nonce: int, writes: list[WriteItem]) -> TransactionEnvelope:
    # The tx id depends on the nonce only: a repeated nonce is a duplicate id.
    proposal = Proposal.create("ch", "cc", "fn", (), "Org1.c", nonce)
    return TransactionEnvelope(
        proposal=proposal, rwset=ReadWriteSet.build(writes=writes), endorsements=()
    )


writes_strategy = st.lists(
    st.builds(WriteItem, key=st.sampled_from(KEYS), value=st.binary(min_size=1, max_size=3))
    | st.builds(WriteItem, key=st.sampled_from(KEYS), value=st.just(b""), is_delete=st.just(True)),
    max_size=4,
)


@st.composite
def chains(draw):
    """Blocks as ``(transactions, codes, replace)`` drafts."""

    drafts = []
    for _ in range(draw(st.integers(1, 5))):
        size = draw(st.integers(0, 6))  # 0: an empty block
        txs = [_tx(draw(st.integers(0, 12)), draw(writes_strategy)) for _ in range(size)]
        codes = [draw(st.sampled_from(CODES)) for _ in txs]
        drafts.append((txs, codes, draw(st.booleans())))
    return drafts


def _committed(number: int, previous_hash: bytes, txs, codes, replace: bool):
    block = Block.build(number, previous_hash, tuple(txs))
    metadata = BlockMetadata(number)
    for index, code in enumerate(codes):
        metadata.mark(index, code)
    effective = None
    if replace:
        # What a CRDT merge leaves: every valid write of a key carries one
        # merged value (one shared WriteItem per key), other writes stay.
        merged = {
            key: WriteItem(key, f"merged-{number}-{key}".encode(), is_crdt=True)
            for key in KEYS[::2]
        }
        effective = tuple(
            (index, merged.get(write.key, write))
            for index, tx in enumerate(txs)
            if codes[index].is_valid
            for write in tx.rwset.writes
        )
    return CommittedBlock(block, metadata, effective_writes=effective)


@given(drafts=chains())
@settings(max_examples=150, deadline=None)
def test_position_indexes_match_copies(drafts):
    ledger, reference = Ledger(), CopyingIndexes()
    for txs, codes, replace in drafts:
        committed = _committed(ledger.height, ledger.last_hash, txs, codes, replace)
        ledger.append_block(committed)
        reference.append_block(committed)

    for key in KEYS + ("missing",):
        assert ledger.history_for_key(key) == reference.history_for_key(key)
    tx_ids = {tx.tx_id for txs, _, _ in drafts for tx in txs} | {"missing"}
    for tx_id in tx_ids:
        assert ledger.has_transaction(tx_id) == reference.has_transaction(tx_id)
        assert ledger.transaction_status(tx_id) == reference.transaction_status(tx_id)


def test_history_of_a_key_written_twice_by_one_transaction():
    ledger = Ledger()
    tx = _tx(1, [WriteItem("k", b"1"), WriteItem("j", b"x"), WriteItem("k", b"2")])
    ledger.append_block(_committed(0, ledger.last_hash, [tx], [ValidationCode.VALID], False))
    assert [(mod.value, mod.version) for mod in ledger.history_for_key("k")] == [
        (b"1", Version(0, 0)),
        (b"2", Version(0, 0)),
    ]


def test_effective_writes_out_of_transaction_order_are_refused():
    # The history bisects a block's effective writes by transaction index; a
    # block decoded from a frame must not be able to break that silently.
    ledger = Ledger()
    txs = [_tx(1, [WriteItem("a", b"1")]), _tx(2, [WriteItem("a", b"2")])]
    committed = _committed(
        0, ledger.last_hash, txs, [ValidationCode.VALID, ValidationCode.VALID], True
    )
    reordered = CommittedBlock(
        committed.block, committed.metadata, effective_writes=committed.effective_writes[::-1]
    )
    with pytest.raises(LedgerError, match="out of transaction order"):
        ledger.append_block(reordered)
    assert ledger.height == 0


def test_history_on_a_crdt_peer_carries_the_merged_value():
    """Listing 2: every CRDT write of a key in a block commits the merged
    value, so the key's history lists one entry per transaction, each with
    that value."""

    peer = build_peer(peer_cls=CRDTPeer)
    txs = tuple(
        endorsed_tx(
            peer, write_rwset(("Device1", {"readings": [{"t": str(n)}]}), crdt=True), nonce=n
        )
        for n in range(4)
    )
    committed = peer.validate_and_commit(Block.build(0, peer.ledger.last_hash, txs))

    history = peer.ledger.history_for_key("Device1")
    assert [mod.tx_id for mod in history] == [tx.tx_id for tx in txs]
    assert [mod.version for mod in history] == [Version(0, n) for n in range(4)]
    merged = peer.ledger.state.get_value("Device1")
    assert all(mod.value == merged for mod in history)
    assert sorted(r["t"] for r in from_bytes(merged)["readings"]) == ["0", "1", "2", "3"]
    # One WriteItem per key per block, shared by the four transactions.
    assert len({id(write) for _, write in committed.effective_writes}) == 1
