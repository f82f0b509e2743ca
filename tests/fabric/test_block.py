"""Tests for block structure, hashing, and metadata."""

from repro.common.types import ReadWriteSet, ValidationCode, WriteItem
from repro.fabric.block import (
    GENESIS_PREVIOUS_HASH,
    Block,
    BlockMetadata,
    CommittedBlock,
)
from repro.fabric.transaction import Proposal, TransactionEnvelope


def make_tx(nonce, value=b"v"):
    proposal = Proposal.create("ch", "cc", "fn", (), "Org1.c", nonce)
    return TransactionEnvelope(
        proposal=proposal,
        rwset=ReadWriteSet.build(writes=[WriteItem("k", value)]),
        endorsements=(),
    )


class TestBlock:
    def test_build_and_verify(self):
        block = Block.build(0, GENESIS_PREVIOUS_HASH, (make_tx(1), make_tx(2)))
        assert block.verify_integrity(expected_previous_hash=GENESIS_PREVIOUS_HASH)
        assert len(block) == 2
        assert block.tx_ids() == tuple(tx.tx_id for tx in block.transactions)

    def test_tamper_detected(self):
        block = Block.build(0, GENESIS_PREVIOUS_HASH, (make_tx(1),))
        tampered = Block(
            header=block.header,
            transactions=(make_tx(2),),
        )
        assert not tampered.verify_integrity()

    def test_chain_link_detected(self):
        first = Block.build(0, GENESIS_PREVIOUS_HASH, (make_tx(1),))
        second = Block.build(1, first.header.hash(), (make_tx(2),))
        assert second.verify_integrity(expected_previous_hash=first.header.hash())
        assert not second.verify_integrity(expected_previous_hash=GENESIS_PREVIOUS_HASH)

    def test_header_hash_depends_on_number(self):
        a = Block.build(0, GENESIS_PREVIOUS_HASH, (make_tx(1),))
        b = Block.build(1, GENESIS_PREVIOUS_HASH, (make_tx(1),))
        assert a.header.hash() != b.header.hash()

    def test_empty_block_hashable(self):
        block = Block.build(0, GENESIS_PREVIOUS_HASH, ())
        assert block.verify_integrity()


class TestBlockMetadata:
    def test_mark_and_count(self):
        metadata = BlockMetadata(0)
        metadata.mark(0, ValidationCode.VALID)
        metadata.mark(2, ValidationCode.MVCC_READ_CONFLICT)
        assert metadata.code_for(0) is ValidationCode.VALID
        assert metadata.code_for(1) is ValidationCode.NOT_VALIDATED
        assert metadata.code_for(2) is ValidationCode.MVCC_READ_CONFLICT
        assert metadata.valid_count == 1
        assert metadata.invalid_count == 2  # NOT_VALIDATED counts as invalid

    def test_code_for_out_of_range(self):
        assert BlockMetadata(0).code_for(5) is ValidationCode.NOT_VALIDATED


class TestCommittedBlock:
    def test_writes_applied_default_uses_valid_txs(self):
        tx_ok, tx_bad = make_tx(1, b"ok"), make_tx(2, b"bad")
        block = Block.build(0, GENESIS_PREVIOUS_HASH, (tx_ok, tx_bad))
        metadata = BlockMetadata(0)
        metadata.mark(0, ValidationCode.VALID)
        metadata.mark(1, ValidationCode.MVCC_READ_CONFLICT)
        committed = CommittedBlock(block, metadata)
        writes = committed.writes_applied()
        assert len(writes) == 1
        assert writes[0][0] == 0 and writes[0][1].value == b"ok"

    def test_effective_writes_override(self):
        tx = make_tx(1)
        block = Block.build(0, GENESIS_PREVIOUS_HASH, (tx,))
        metadata = BlockMetadata(0)
        metadata.mark(0, ValidationCode.VALID)
        merged = WriteItem("k", b"merged", is_crdt=True)
        committed = CommittedBlock(block, metadata, effective_writes=((0, merged),))
        assert committed.writes_applied() == ((0, merged),)

    def test_statuses(self):
        tx = make_tx(1)
        block = Block.build(3, GENESIS_PREVIOUS_HASH, (tx,))
        metadata = BlockMetadata(3)
        metadata.mark(0, ValidationCode.VALID)
        committed = CommittedBlock(block, metadata)
        assert committed.statuses() == [(tx.tx_id, ValidationCode.VALID)]
