"""Tests for the metrics collector and benchmark results."""

import pytest

from repro.common.types import ReadWriteSet, ValidationCode, WriteItem
from repro.fabric.block import GENESIS_PREVIOUS_HASH, Block, BlockMetadata, CommittedBlock
from repro.fabric.transaction import Proposal, TransactionEnvelope
from repro.sim import Environment
from repro.workload.metrics import MetricsCollector


def make_tx(nonce, submit_time=0.0):
    proposal = Proposal.create(
        "ch", "cc", "fn", (str(nonce),), "Org1.c", nonce, submit_time=submit_time
    )
    return TransactionEnvelope(
        proposal=proposal,
        rwset=ReadWriteSet.build(writes=[WriteItem("k", b"v")]),
        endorsements=(),
    )


def committed(number, txs, codes, commit_time):
    block = Block.build(number, GENESIS_PREVIOUS_HASH, tuple(txs))
    metadata = BlockMetadata(number)
    for index, code in enumerate(codes):
        metadata.mark(index, code)
    return CommittedBlock(block, metadata, commit_time=commit_time)


class TestCollector:
    def test_done_fires_when_all_resolved(self):
        env = Environment()
        collector = MetricsCollector(env, expected=2)
        txs = [make_tx(1, 0.0), make_tx(2, 1.0)]
        collector.on_block(
            committed(0, txs, [ValidationCode.VALID, ValidationCode.MVCC_READ_CONFLICT], 5.0),
            "peer",
        )
        assert collector.done.triggered

    def test_result_metrics(self):
        env = Environment()
        collector = MetricsCollector(env, expected=2)
        txs = [make_tx(1, 0.0), make_tx(2, 1.0)]
        collector.on_block(
            committed(0, txs, [ValidationCode.VALID, ValidationCode.VALID], 5.0), "peer"
        )
        result = collector.result("label")
        assert result.successful == 2
        assert result.failed == 0
        assert result.duration_s == pytest.approx(5.0)
        assert result.throughput_tps == pytest.approx(2 / 5.0)
        assert result.avg_latency_s == pytest.approx((5.0 + 4.0) / 2)
        assert result.max_latency_s == pytest.approx(5.0)
        assert result.blocks_committed == 1
        assert result.avg_block_fill == pytest.approx(2.0)

    def test_failure_codes_histogram(self):
        env = Environment()
        collector = MetricsCollector(env, expected=2)
        txs = [make_tx(1), make_tx(2)]
        collector.on_block(
            committed(
                0,
                txs,
                [ValidationCode.MVCC_READ_CONFLICT, ValidationCode.MVCC_READ_CONFLICT],
                2.0,
            ),
            "peer",
        )
        result = collector.result("label")
        assert result.failure_codes == {"MVCC_READ_CONFLICT": 2}

    def test_duplicate_blocks_counted_once_per_tx(self):
        env = Environment()
        collector = MetricsCollector(env, expected=1)
        tx = make_tx(1)
        block = committed(0, [tx], [ValidationCode.VALID], 2.0)
        collector.on_block(block, "peer")
        collector.on_block(block, "peer-second-view")
        assert len(collector.statuses) == 1

    def test_endorsement_failure_counts_toward_done(self):
        env = Environment()
        collector = MetricsCollector(env, expected=2)
        collector.on_endorsement_failure("txA", now=1.0)
        collector.on_block(committed(0, [make_tx(1)], [ValidationCode.VALID], 2.0), "p")
        assert collector.done.triggered
        result = collector.result("label")
        assert result.endorsement_failures == 1
        assert result.failed == 1

    def test_expected_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricsCollector(Environment(), expected=0)

    def test_row_shape(self):
        env = Environment()
        collector = MetricsCollector(env, expected=1)
        collector.on_block(committed(0, [make_tx(1)], [ValidationCode.VALID], 4.0), "p")
        row = collector.result("sys-25").row()
        assert set(row) == {"label", "throughput_tps", "avg_latency_s", "successful"}
