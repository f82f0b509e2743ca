"""Tests for per-transaction trace analysis."""

import math

import pytest

from repro.common.types import TxStatus, ValidationCode
from repro.workload.trace import (
    export_csv,
    latency_percentiles,
    queue_depth_estimate,
    summarize_run,
    throughput_timeline,
    trace_rows,
)


def status(tx_id, submit, commit, code=ValidationCode.VALID):
    return TxStatus(tx_id, code, submit_time=submit, commit_time=commit)


@pytest.fixture
def statuses():
    return [
        status("a", 0.0, 1.0),
        status("b", 0.5, 2.5),
        status("c", 1.0, 2.0, code=ValidationCode.MVCC_READ_CONFLICT),
        status("d", 1.5, 4.5),
    ]


class TestTraceRows:
    def test_rows_sorted_by_submit_time(self, statuses):
        rows = trace_rows(reversed(statuses))
        assert [row["tx_id"] for row in rows] == ["a", "b", "c", "d"]

    def test_row_fields(self, statuses):
        row = trace_rows(statuses)[0]
        assert row["code"] == "VALID"
        assert row["latency"] == pytest.approx(1.0)


class TestPercentiles:
    def test_successful_only(self, statuses):
        result = latency_percentiles(statuses, quantiles=(50, 100))
        # Successful latencies: 1.0, 2.0, 3.0 -> median 2.0, max 3.0.
        assert result[50] == pytest.approx(2.0)
        assert result[100] == pytest.approx(3.0)

    def test_including_failures(self, statuses):
        result = latency_percentiles(statuses, quantiles=(100,), successful_only=False)
        assert result[100] == pytest.approx(3.0)

    def test_empty_is_nan(self):
        result = latency_percentiles([], quantiles=(50,))
        assert math.isnan(result[50])


class TestTimeline:
    def test_commit_rate_per_window(self, statuses):
        timeline = dict(throughput_timeline(statuses, window_s=1.0))
        assert timeline[1.0] == pytest.approx(1.0)  # "a" commits at 1.0
        assert timeline[2.0] == pytest.approx(1.0)  # "b" (c failed)
        assert timeline[4.0] == pytest.approx(1.0)  # "d"

    def test_invalid_window(self, statuses):
        with pytest.raises(ValueError):
            throughput_timeline(statuses, window_s=0)

    def test_empty(self):
        assert throughput_timeline([]) == []


class TestQueueDepth:
    def test_depth_grows_then_drains(self, statuses):
        samples = dict(queue_depth_estimate(statuses, window_s=1.0))
        # Samples measure depth just *before* each boundary.
        assert samples[0.0] == 0  # before anything submitted
        assert samples[1.0] == 2  # a and b in flight; a commits exactly at 1.0
        assert samples[2.0] == 3  # b, c, d in flight
        assert samples[5.0] == 0  # fully drained

    def test_empty(self):
        assert queue_depth_estimate([]) == []


class TestExportAndSummary:
    def test_csv_roundtrip(self, statuses, tmp_path):
        path = tmp_path / "trace.csv"
        count = export_csv(path, statuses)
        assert count == 4
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("tx_id,code,succeeded")
        assert len(lines) == 5

    def test_summarize_run(self, statuses):
        summary = summarize_run({s.tx_id: s for s in statuses})
        assert summary["total"] == 4
        assert summary["successful"] == 3
        assert summary["failure_codes"] == {"MVCC_READ_CONFLICT": 1}
        assert summary["first_commit_s"] == pytest.approx(1.0)
        assert summary["last_commit_s"] == pytest.approx(4.5)

    def test_summary_from_real_run(self):
        from repro.common.config import NetworkConfig, OrdererConfig, TopologyConfig
        from repro.sim import Environment
        from repro.workload.clients import OpenLoopClient, RoundContext
        from repro.workload.runner import build_network, populate_ledger
        from repro.workload.generator import generate_plan, keys_to_populate
        from repro.gateway import Gateway
        from repro.workload.iot import IOT_CHAINCODE_NAME, IoTChaincode
        from repro.workload.metrics import MetricsCollector
        from repro.workload.spec import WorkloadSpec

        spec = WorkloadSpec(total_transactions=60, rate_tps=300.0)
        config = NetworkConfig(
            topology=TopologyConfig(1, 1),
            orderer=OrdererConfig(max_message_count=25),
            crdt_enabled=True,
        )
        env = Environment()
        network = build_network(env, config)
        network.deploy(IoTChaincode())
        plan = generate_plan(spec)
        populate_ledger(network, keys_to_populate(spec, plan))
        gateway = Gateway.connect(network)
        collector = MetricsCollector(env, expected=len(plan))
        collector.observe(gateway.block_events())
        contract = gateway.get_contract(IOT_CHAINCODE_NAME)
        OpenLoopClient().start(RoundContext(
            env=env, gateway=gateway, contract=contract, plan=plan,
            collector=collector, rate=None,
        ))
        env.run(until=collector.done)

        summary = summarize_run(collector.statuses)
        assert summary["successful"] == 60
        assert summary["latency_percentiles_s"][99] >= summary["latency_percentiles_s"][50]
