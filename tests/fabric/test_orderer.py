"""Tests for the ordering service's block-cutting rules."""

import pytest

from repro.common.config import OrdererConfig
from repro.common.errors import OrderingError
from repro.common.types import ReadWriteSet, WriteItem
from repro.fabric.orderer import OrderingService
from repro.fabric.transaction import Proposal, TransactionEnvelope


def envelope(nonce, payload_bytes=10):
    proposal = Proposal.create("ch", "cc", "fn", (str(nonce),), "Org1.c", nonce)
    return TransactionEnvelope(
        proposal=proposal,
        rwset=ReadWriteSet.build(writes=[WriteItem("k", b"x" * payload_bytes)]),
        endorsements=(),
    )


class TestCountCutting:
    def test_cuts_at_max_message_count(self):
        service = OrderingService(OrdererConfig(max_message_count=3))
        blocks = []
        for i in range(7):
            blocks.extend(service.submit(envelope(i), now=float(i)))
        assert [len(b) for b in blocks] == [3, 3]
        assert service.pending_count == 1
        assert [b.number for b in blocks] == [0, 1]
        assert all(b.cut_reason == "count" for b in blocks)

    def test_block_numbers_and_hash_chain(self):
        service = OrderingService(OrdererConfig(max_message_count=1))
        first = service.submit(envelope(0))[0]
        second = service.submit(envelope(1))[0]
        assert second.header.previous_hash == first.header.hash()
        assert second.verify_integrity(expected_previous_hash=first.header.hash())


class TestByteCutting:
    def test_cuts_before_exceeding_preferred_bytes(self):
        big = envelope(0, payload_bytes=400)
        size = big.byte_size()
        service = OrderingService(
            OrdererConfig(max_message_count=100, preferred_max_bytes=int(size * 2.5))
        )
        assert service.submit(envelope(0, 400), now=0.0) == []
        assert service.submit(envelope(1, 400), now=0.0) == []
        blocks = service.submit(envelope(2, 400), now=1.0)
        assert len(blocks) == 1
        assert len(blocks[0]) == 2  # the pending pair, cut before admitting #3
        assert blocks[0].cut_reason == "bytes"
        assert service.pending_count == 1

    def test_oversized_envelope_gets_own_block(self):
        small = envelope(0, 10)
        service = OrderingService(
            OrdererConfig(max_message_count=100, preferred_max_bytes=small.byte_size() * 3)
        )
        assert service.submit(small) == []
        blocks = service.submit(envelope(1, 5000), now=0.0)
        assert [len(b) for b in blocks] == [1, 1]
        assert blocks[0].transactions[0].tx_id == small.tx_id
        assert blocks[1].transactions[0].tx_id == envelope(1, 5000).tx_id


class TestTimeoutCutting:
    def test_deadline_tracks_first_pending(self):
        service = OrderingService(OrdererConfig(max_message_count=10, batch_timeout_s=2.0))
        assert service.timeout_deadline() is None
        service.submit(envelope(0), now=5.0)
        service.submit(envelope(1), now=6.0)
        assert service.timeout_deadline() == pytest.approx(7.0)

    def test_cut_on_timeout_with_current_epoch(self):
        service = OrderingService(OrdererConfig(max_message_count=10))
        service.submit(envelope(0), now=0.0)
        epoch = service.batch_epoch
        block = service.cut_on_timeout(now=2.0, epoch=epoch)
        assert block is not None and len(block) == 1
        assert block.cut_reason == "timeout"
        assert service.timeout_deadline() is None

    def test_stale_epoch_ignored(self):
        service = OrderingService(OrdererConfig(max_message_count=2))
        service.submit(envelope(0), now=0.0)
        stale_epoch = service.batch_epoch
        service.submit(envelope(1), now=0.5)  # cuts by count, bumps epoch
        assert service.cut_on_timeout(now=2.0, epoch=stale_epoch) is None

    def test_timeout_with_nothing_pending(self):
        service = OrderingService(OrdererConfig())
        assert service.cut_on_timeout(now=2.0, epoch=service.batch_epoch) is None


class TestFlush:
    def test_flush_cuts_remainder(self):
        service = OrderingService(OrdererConfig(max_message_count=10))
        service.submit(envelope(0))
        service.submit(envelope(1))
        block = service.flush(now=9.0)
        assert block is not None and len(block) == 2
        assert block.cut_reason == "flush"
        assert service.flush() is None

    def test_internal_cut_requires_pending(self):
        service = OrderingService(OrdererConfig())
        with pytest.raises(OrderingError):
            service._cut("count", 0.0)


class TestStats:
    def test_counters(self):
        service = OrderingService(OrdererConfig(max_message_count=2))
        for i in range(5):
            service.submit(envelope(i))
        service.flush()
        assert service.stats.get("envelopes_received") == 5
        assert service.stats.get("blocks_cut") == 3
        assert service.stats.get("blocks_cut_count") == 2
        assert service.stats.get("blocks_cut_flush") == 1
