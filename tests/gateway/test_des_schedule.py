"""The DES event schedule is pinned: results *and* the number of events.

``DESTransport``'s singleton flow (one process per transaction — what the
open-loop client drives) and its batched flow (one process per burst — what
the closed-loop client drives) share their per-transaction half.  The golden
smoke fingerprint covers the singleton flow's *results*; this module pins,
for both flows and with telemetry off and on, every reported metric and
``Environment.events_processed`` — a moved, added or dropped simulation
event changes the count even where it leaves the metrics alone.

Literals printed by commit 1fe32bd (``python tests/gateway/test_des_schedule.py``
prints them again).
"""

import json

import pytest

from repro.bench.calibration import calibrated_cost_model
from repro.common.config import fabric_config, fabriccrdt_config
from repro.sim.engine import Environment
from repro.telemetry import Telemetry
from repro.workload import runner
from repro.workload.rate import MaxRate
from repro.workload.runner import Round, run_round
from repro.workload.spec import WorkloadSpec

SPEC = WorkloadSpec(total_transactions=60, rate_tps=150.0, conflict_pct=60.0, seed=11)

ROUNDS = {
    "open-loop-crdt": Round(SPEC, fabriccrdt_config(10, seed=3)),
    "open-loop-fabric": Round(SPEC.with_crdt(False), fabric_config(10, seed=3)),
    "closed-loop-crdt": Round(
        SPEC, fabriccrdt_config(10, seed=3), rate=MaxRate(in_flight=16, batch_size=4)
    ),
    "closed-loop-fabric": Round(
        SPEC.with_crdt(False), fabric_config(10, seed=3),
        rate=MaxRate(in_flight=16, batch_size=4),
    ),
}

EXPECTED = {
    "closed-loop-crdt": (5679, {
        "avg_block_fill": 10.0, "avg_latency_s": 0.2743623395648333,
        "blocks_committed": 6, "duration_s": 1.097632055590498,
        "endorsement_failures": 0, "failed": 0, "failure_codes": {},
        "label": "FabricCRDT-10txb", "max_latency_s": 0.3699605237319146,
        "merge_ops": 300, "merge_scan_steps": 210, "successful": 60,
        "throughput_tps": 54.66312658636918, "total_submitted": 60,
        "trim_cooldown_s": 0.0, "trim_warmup_s": 0.0,
    }),
    "closed-loop-fabric": (5679, {
        "avg_block_fill": 10.0, "avg_latency_s": 0.2817786444253455,
        "blocks_committed": 6, "duration_s": 1.3159992695589446,
        "endorsement_failures": 0, "failed": 32,
        "failure_codes": {"MVCC_READ_CONFLICT": 32},
        "label": "Fabric-10txb", "max_latency_s": 0.4378140818850172,
        "merge_ops": 0, "merge_scan_steps": 0, "successful": 28,
        "throughput_tps": 21.276607554185166, "total_submitted": 60,
        "trim_cooldown_s": 0.0, "trim_warmup_s": 0.0,
    }),
    "open-loop-crdt": (5766, {
        "avg_block_fill": 10.0, "avg_latency_s": 0.2111374696860478,
        "blocks_committed": 6, "duration_s": 0.5720959489589527,
        "endorsement_failures": 0, "failed": 0, "failure_codes": {},
        "label": "FabricCRDT-10txb", "max_latency_s": 0.24545410348785102,
        "merge_ops": 300, "merge_scan_steps": 202, "successful": 60,
        "throughput_tps": 104.8775124333295, "total_submitted": 60,
        "trim_cooldown_s": 0.0, "trim_warmup_s": 0.0,
    }),
    "open-loop-fabric": (5766, {
        "avg_block_fill": 10.0, "avg_latency_s": 0.24526585424008107,
        "blocks_committed": 6, "duration_s": 0.6079032348501627,
        "endorsement_failures": 0, "failed": 35,
        "failure_codes": {"MVCC_READ_CONFLICT": 35},
        "label": "Fabric-10txb", "max_latency_s": 0.2769289344914125,
        "merge_ops": 0, "merge_scan_steps": 0, "successful": 25,
        "throughput_tps": 41.12496622289245, "total_submitted": 60,
        "trim_cooldown_s": 0.0, "trim_warmup_s": 0.0,
    }),
}


def measure(name: str, telemetry: bool) -> tuple[int, str]:
    """``(events processed, canonical result JSON)`` of one pinned round."""

    created: list[Environment] = []

    def recording_environment() -> Environment:
        created.append(Environment())
        return created[-1]

    original = runner.Environment
    runner.Environment = recording_environment
    try:
        result = run_round(
            ROUNDS[name],
            cost=calibrated_cost_model(),
            telemetry=Telemetry() if telemetry else None,
        )
    finally:
        runner.Environment = original
    [env] = created
    return env.events_processed, json.dumps(result.to_dict(), sort_keys=True)


@pytest.mark.parametrize("telemetry", [False, True], ids=["bare", "telemetry"])
@pytest.mark.parametrize("name", sorted(ROUNDS))
def test_round_matches_the_pinned_schedule(name, telemetry):
    events, result = measure(name, telemetry)
    expected_events, expected_result = EXPECTED[name]
    assert events == expected_events
    assert json.loads(result) == expected_result


if __name__ == "__main__":  # prints the EXPECTED literal
    for round_name in sorted(ROUNDS):
        bare = measure(round_name, telemetry=False)
        assert bare == measure(round_name, telemetry=True), round_name
        print(f"    {round_name!r}: ({bare[0]}, {json.loads(bare[1])!r}),")
