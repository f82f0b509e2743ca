"""Fitting the two CRDT-merge cost constants to the paper's anchors.

The cost model (:class:`repro.fabric.costmodel.CostModel`) has exactly two
free parameters: the per-operation cost and the per-list-scan-step cost of
the JSON-CRDT block merge.  Everything else is a structural constant (see
that module's docstring).  We fit the two parameters against two
*commit-bound* anchor points of the paper's evaluation:

* **Figure 3, 1000 txs/block**: FabricCRDT ≈ 20 tx/s → 50 s per block;
* **Figure 5, 6–6 complexity, 25 txs/block**: ≈ 100 tx/s → 0.25 s per block.

For each anchor we *run the real Algorithm-1 merge* on a synthetic block of
the corresponding workload, measure the actual (ops, scan-steps, bytes)
counters, subtract the non-merge commit costs, and solve the 2×2 linear
system.  Measuring rather than assuming op counts keeps the calibration
valid if the merge implementation changes.

No other figure or sweep point is used for fitting — the mid-curve shapes
must emerge (and EXPERIMENTS.md records how well they do).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..common.config import CRDTConfig
from ..common.errors import CalibrationError
from ..core.jsonmerge import init_empty_crdt, merge_crdt
from ..fabric.costmodel import CostModel
from ..workload.iot import nested_payload, reading_payload


@dataclass(frozen=True)
class MergeWorkSample:
    """Measured merge work for one synthetic block on one hot key."""

    block_size: int
    ops: int
    scan_steps: int
    merged_value_bytes: int

    def bytes_written_total(self) -> int:
        """Total write bytes: every tx in the block commits the merged value."""

        return self.merged_value_bytes * self.block_size


def measure_merge_work(
    block_size: int, json_keys: int = 2, nesting_depth: int = 1
) -> MergeWorkSample:
    """Run Algorithm 1's merge loop for one key over a synthetic block."""

    config = CRDTConfig()
    first_payload = _payload(json_keys, nesting_depth, 0)
    merged = init_empty_crdt("device-hot-0", first_payload, actor="calib")
    ops = 0
    for sequence in range(block_size):
        ops += merge_crdt(merged, _payload(json_keys, nesting_depth, sequence), config)
    assert merged.document is not None
    return MergeWorkSample(
        block_size=block_size,
        ops=ops,
        scan_steps=merged.document.stats.list_scan_steps,
        merged_value_bytes=len(merged.to_committed_bytes()),
    )


def _payload(json_keys: int, nesting_depth: int, sequence: int) -> dict:
    if nesting_depth > 1:
        return nested_payload(json_keys, nesting_depth, 20, sequence)
    return reading_payload("device-hot-0", 20, sequence)


# ---------------------------------------------------------------------------
# Anchors (paper numbers, revised arXiv figures)
# ---------------------------------------------------------------------------

#: Figure 3: FabricCRDT throughput at 1000 txs/block.
ANCHOR_FIG3_BLOCK = 1000
ANCHOR_FIG3_TPS = 20.0

#: Figure 5: FabricCRDT throughput at 6 keys / depth 6, 25 txs/block.
ANCHOR_FIG5_KEYS = 6
ANCHOR_FIG5_DEPTH = 6
ANCHOR_FIG5_BLOCK = 25
ANCHOR_FIG5_TPS = 100.0


def _non_merge_commit_time(base: CostModel, sample: MergeWorkSample, distinct_keys: int) -> float:
    return (
        base.commit_base_s
        + base.vscc_per_tx_s * sample.block_size
        + base.write_per_key_s * distinct_keys
        + base.write_per_kib_s * (sample.bytes_written_total() / 1024.0)
    )


@lru_cache(maxsize=1)
def calibrated_cost_model() -> CostModel:
    """The cost model with merge constants solved from the two anchors."""

    base = CostModel()
    fig3 = measure_merge_work(ANCHOR_FIG3_BLOCK, json_keys=2, nesting_depth=1)
    fig5 = measure_merge_work(
        ANCHOR_FIG5_BLOCK, json_keys=ANCHOR_FIG5_KEYS, nesting_depth=ANCHOR_FIG5_DEPTH
    )

    target_fig3 = ANCHOR_FIG3_BLOCK / ANCHOR_FIG3_TPS - _non_merge_commit_time(base, fig3, 1)
    target_fig5 = ANCHOR_FIG5_BLOCK / ANCHOR_FIG5_TPS - _non_merge_commit_time(base, fig5, 1)
    if target_fig3 <= 0 or target_fig5 <= 0:
        raise CalibrationError("non-merge costs exceed anchor block times")

    # Solve: ops*cop + scan*csc = target, for the two anchors.
    a11, a12, b1 = float(fig3.ops), float(fig3.scan_steps), target_fig3
    a21, a22, b2 = float(fig5.ops), float(fig5.scan_steps), target_fig5
    determinant = a11 * a22 - a12 * a21
    if abs(determinant) < 1e-9:
        raise CalibrationError("anchor work vectors are colinear; cannot solve")
    per_op = (b1 * a22 - b2 * a12) / determinant
    per_scan = (a11 * b2 - a21 * b1) / determinant
    if per_op <= 0 or per_scan <= 0:
        raise CalibrationError(
            f"calibration produced non-positive constants: "
            f"per_op={per_op:.3g}, per_scan={per_scan:.3g}"
        )
    return base.with_merge_constants(per_op, per_scan)


def calibration_report() -> dict:
    """Diagnostics for EXPERIMENTS.md: measured work and solved constants."""

    model = calibrated_cost_model()
    fig3 = measure_merge_work(ANCHOR_FIG3_BLOCK, 2, 1)
    fig5 = measure_merge_work(ANCHOR_FIG5_BLOCK, ANCHOR_FIG5_KEYS, ANCHOR_FIG5_DEPTH)
    return {
        "merge_per_op_s": model.merge_per_op_s,
        "merge_per_scan_step_s": model.merge_per_scan_step_s,
        "anchor_fig3": {
            "block_size": fig3.block_size,
            "ops": fig3.ops,
            "scan_steps": fig3.scan_steps,
            "target_tps": ANCHOR_FIG3_TPS,
        },
        "anchor_fig5": {
            "block_size": fig5.block_size,
            "ops": fig5.ops,
            "scan_steps": fig5.scan_steps,
            "target_tps": ANCHOR_FIG5_TPS,
        },
    }
