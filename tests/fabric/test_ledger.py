"""Tests for the ledger: chain integrity, replay, history."""

import pytest

from repro.common.errors import LedgerError
from repro.common.types import ReadWriteSet, ValidationCode, WriteItem
from repro.fabric.block import GENESIS_PREVIOUS_HASH, Block, BlockMetadata, CommittedBlock
from repro.fabric.ledger import Ledger
from repro.fabric.transaction import Proposal, TransactionEnvelope


def make_tx(nonce, key="k", value=b"v"):
    proposal = Proposal.create("ch", "cc", "fn", (str(nonce),), "Org1.c", nonce)
    return TransactionEnvelope(
        proposal=proposal,
        rwset=ReadWriteSet.build(writes=[WriteItem(key, value)]),
        endorsements=(),
    )


def committed_block(number, previous_hash, txs, codes):
    block = Block.build(number, previous_hash, tuple(txs))
    metadata = BlockMetadata(number)
    for index, code in enumerate(codes):
        metadata.mark(index, code)
    return CommittedBlock(block, metadata)


class TestAppend:
    def test_height_and_hash_advance(self):
        ledger = Ledger()
        assert ledger.height == 0
        assert ledger.last_hash == GENESIS_PREVIOUS_HASH
        first = committed_block(0, ledger.last_hash, [make_tx(1)], [ValidationCode.VALID])
        ledger.append_block(first)
        assert ledger.height == 1
        assert ledger.last_hash == first.block.header.hash()

    def test_out_of_order_rejected(self):
        ledger = Ledger()
        with pytest.raises(LedgerError):
            ledger.append_block(
                committed_block(5, ledger.last_hash, [make_tx(1)], [ValidationCode.VALID])
            )

    def test_bad_chain_link_rejected(self):
        ledger = Ledger()
        ledger.append_block(
            committed_block(0, ledger.last_hash, [make_tx(1)], [ValidationCode.VALID])
        )
        with pytest.raises(LedgerError):
            ledger.append_block(
                committed_block(1, b"\x99" * 32, [make_tx(2)], [ValidationCode.VALID])
            )

    def test_tx_lookup(self):
        ledger = Ledger()
        tx = make_tx(1)
        ledger.append_block(
            committed_block(0, ledger.last_hash, [tx], [ValidationCode.MVCC_READ_CONFLICT])
        )
        assert ledger.has_transaction(tx.tx_id)
        assert ledger.transaction_status(tx.tx_id) is ValidationCode.MVCC_READ_CONFLICT
        assert ledger.transaction_status("nope") is None

    def test_block_at(self):
        ledger = Ledger()
        first = committed_block(0, ledger.last_hash, [make_tx(1)], [ValidationCode.VALID])
        ledger.append_block(first)
        assert ledger.block_at(0) is first
        with pytest.raises(LedgerError):
            ledger.block_at(9)

    def test_block_at_rejects_negative_numbers(self):
        """Regression: Python's negative indexing used to silently serve
        blocks from the end of the chain — block numbers are absolute."""

        ledger = Ledger()
        ledger.append_block(
            committed_block(0, ledger.last_hash, [make_tx(1)], [ValidationCode.VALID])
        )
        for number in (-1, -2):
            with pytest.raises(LedgerError, match="non-negative"):
                ledger.block_at(number)


class TestHistoryAndReplay:
    def _ledger_with_writes(self):
        ledger = Ledger()
        tx1, tx2 = make_tx(1, value=b"v1"), make_tx(2, value=b"v2")
        block = committed_block(
            0, ledger.last_hash, [tx1, tx2], [ValidationCode.VALID, ValidationCode.VALID]
        )
        for tx_index, write in block.writes_applied():
            from repro.common.types import Version

            ledger.state.apply_write(write.key, write.value, Version(0, tx_index))
        ledger.append_block(block)
        return ledger, tx1, tx2

    def test_history_records_valid_writes(self):
        ledger, tx1, tx2 = self._ledger_with_writes()
        history = ledger.history_for_key("k")
        assert [mod.tx_id for mod in history] == [tx1.tx_id, tx2.tx_id]
        assert history[-1].value == b"v2"

    def test_rebuild_state_matches_live(self):
        ledger, _, _ = self._ledger_with_writes()
        rebuilt = ledger.rebuild_state()
        assert rebuilt.snapshot_versions() == ledger.state.snapshot_versions()
        assert rebuilt.get_value("k") == ledger.state.get_value("k")

    def test_invalid_tx_writes_not_replayed(self):
        ledger = Ledger()
        tx = make_tx(1)
        block = committed_block(
            0, ledger.last_hash, [tx], [ValidationCode.MVCC_READ_CONFLICT]
        )
        ledger.append_block(block)
        assert ledger.rebuild_state().get_value("k") is None
        assert ledger.history_for_key("k") == ()

    def test_verify_chain(self):
        ledger, _, _ = self._ledger_with_writes()
        assert ledger.verify_chain()

    def test_count_statuses(self):
        ledger = Ledger()
        block = committed_block(
            0,
            ledger.last_hash,
            [make_tx(1), make_tx(2)],
            [ValidationCode.VALID, ValidationCode.MVCC_READ_CONFLICT],
        )
        ledger.append_block(block)
        assert ledger.count_statuses() == {"VALID": 1, "MVCC_READ_CONFLICT": 1}
