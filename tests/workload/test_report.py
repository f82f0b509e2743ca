"""Tests for the figure-shaped text reports."""

from repro.workload.metrics import BenchmarkResult
from repro.workload.reporter import format_figure, format_result_details


def result(label, tps, latency, successful):
    return BenchmarkResult(
        label=label,
        total_submitted=successful,
        successful=successful,
        failed=0,
        duration_s=10.0,
        throughput_tps=tps,
        avg_latency_s=latency,
    )


class TestFormatFigure:
    def test_three_panels_rendered(self):
        crdt = {25: result("c", 267.0, 2.8, 10000)}
        fabric = {25: result("f", 0.6, 3.4, 20)}
        text = format_figure("Figure 3", "txs/block", [25], crdt, fabric)
        assert "Figure 3" in text
        assert text.count("FabricCRDT") == 3
        assert text.count("Fabric  ") >= 3
        assert "267" in text and "0.6" in text
        assert "10000" in text and "2.8" in text

    def test_missing_points_render_nan(self):
        text = format_figure("F", "x", [25, 50], {25: result("c", 1, 1, 1)}, {})
        assert "nan" in text

    def test_tuple_sweep_values(self):
        crdt = {(3, 3): result("c", 157.0, 20.0, 10000)}
        text = format_figure("Figure 4", "R-W", [(3, 3)], crdt, {})
        assert "(3, 3)" in text


class TestDetails:
    def test_details_include_counters(self):
        detailed = BenchmarkResult(
            label="x",
            total_submitted=100,
            successful=90,
            failed=10,
            duration_s=5.0,
            throughput_tps=18.0,
            avg_latency_s=1.0,
            failure_codes={"MVCC_READ_CONFLICT": 10},
            blocks_committed=4,
            avg_block_fill=25.0,
            merge_ops=123,
            merge_scan_steps=456,
            endorsement_failures=1,
        )
        text = format_result_details(detailed)
        assert "MVCC_READ_CONFLICT=10" in text
        assert "merge ops:            123" in text
        assert "endorsement failures: 1" in text
