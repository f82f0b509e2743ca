"""Tests for the cost-model calibration."""

import pytest

from repro.bench.calibration import (
    ANCHOR_FIG3_BLOCK,
    ANCHOR_FIG3_TPS,
    ANCHOR_FIG5_BLOCK,
    ANCHOR_FIG5_DEPTH,
    ANCHOR_FIG5_KEYS,
    ANCHOR_FIG5_TPS,
    calibrated_cost_model,
    calibration_report,
    measure_merge_work,
)
from repro.fabric.peer import CommitWork


class TestMergeWorkMeasurement:
    def test_scan_steps_superlinear_in_block_size(self):
        small = measure_merge_work(10)
        large = measure_merge_work(40)
        # 4x the block size must cost much more than 4x the scan steps —
        # the superlinearity behind Figure 3.
        assert large.scan_steps > 8 * small.scan_steps

    def test_ops_linear_in_block_size(self):
        small = measure_merge_work(10)
        large = measure_merge_work(40)
        assert large.ops == pytest.approx(4 * small.ops, rel=0.2)

    def test_complexity_multiplies_ops(self):
        flat = measure_merge_work(10, json_keys=2, nesting_depth=1)
        nested = measure_merge_work(10, json_keys=6, nesting_depth=6)
        assert nested.ops > 4 * flat.ops

    def test_measurement_deterministic(self):
        assert measure_merge_work(15) == measure_merge_work(15)

    @pytest.mark.parametrize(
        "arguments, ops, scan_steps, merged_value_bytes",
        [
            ((ANCHOR_FIG3_BLOCK, 2, 1), 5000, 999000, 31934),
            ((ANCHOR_FIG5_BLOCK, ANCHOR_FIG5_KEYS, ANCHOR_FIG5_DEPTH), 1650, 3600, 10717),
        ],
    )
    def test_anchor_work_is_pinned(self, arguments, ops, scan_steps, merged_value_bytes):
        """The anchors' measured work feeds every simulated figure: a merge
        engine change that moves these counts moves all of them, silently.
        Literals recorded at commit e652425."""

        sample = measure_merge_work(*arguments)
        assert (sample.ops, sample.scan_steps, sample.merged_value_bytes) == (
            ops, scan_steps, merged_value_bytes,
        )


class TestCalibration:
    def test_constants_positive(self):
        model = calibrated_cost_model()
        assert model.merge_per_op_s > 0
        assert model.merge_per_scan_step_s > 0

    def test_solved_constants_are_pinned(self):
        """Bit-identical to commit e652425: same inputs, same arithmetic."""

        model = calibrated_cost_model()
        assert model.merge_per_op_s == 3.356253584952043e-05
        assert model.merge_per_scan_step_s == 4.824015012712953e-05

    def test_anchor_fig3_reproduced_by_formula(self):
        model = calibrated_cost_model()
        sample = measure_merge_work(ANCHOR_FIG3_BLOCK)
        work = CommitWork(
            tx_count=sample.block_size,
            vscc_checks=sample.block_size,
            distinct_keys_written=1,
            writes_applied=sample.block_size,
            bytes_written=sample.bytes_written_total(),
            merge_ops=sample.ops,
            merge_scan_steps=sample.scan_steps,
        )
        block_time = model.commit_time(work)
        assert sample.block_size / block_time == pytest.approx(ANCHOR_FIG3_TPS, rel=0.02)

    def test_anchor_fig5_reproduced_by_formula(self):
        model = calibrated_cost_model()
        sample = measure_merge_work(
            ANCHOR_FIG5_BLOCK, json_keys=ANCHOR_FIG5_KEYS, nesting_depth=ANCHOR_FIG5_DEPTH
        )
        work = CommitWork(
            tx_count=sample.block_size,
            vscc_checks=sample.block_size,
            distinct_keys_written=1,
            writes_applied=sample.block_size,
            bytes_written=sample.bytes_written_total(),
            merge_ops=sample.ops,
            merge_scan_steps=sample.scan_steps,
        )
        block_time = model.commit_time(work)
        assert sample.block_size / block_time == pytest.approx(ANCHOR_FIG5_TPS, rel=0.02)

    def test_report_fields(self):
        report = calibration_report()
        assert report["merge_per_op_s"] > 0
        assert report["anchor_fig3"]["block_size"] == ANCHOR_FIG3_BLOCK
        assert report["anchor_fig5"]["target_tps"] == ANCHOR_FIG5_TPS


class TestStructuralConstants:
    def test_endorsement_capacity_near_saturation_ceiling(self):
        """The endorsement pool must cap near the paper's ~250-270 tx/s
        saturation ceiling (Figure 6's knee)."""

        model = calibrated_cost_model()
        capacity = model.endorsement_capacity_tps(1, 1)
        assert 230 <= capacity <= 290
