"""Cross-validation: the closed-form model vs. the discrete-event simulator.

Both share the calibrated constants but none of the mechanics; agreement on
commit-bound sweep points is a consistency check on the whole pipeline.
"""

import pytest

from repro.bench.analytic import predict_figure3, predict_point
from repro.bench.experiments import _network_config, ExperimentScale
from repro.workload.runner import Round, run_round
from repro.workload.spec import table1_spec

from conftest import run_once

SIM_TXS = 1200


def test_analytic_prediction_is_fast(benchmark, cost_model):
    predictions = run_once(
        benchmark, lambda: predict_figure3((25, 100, 400, 1000), cost=cost_model)
    )
    assert predictions[25].throughput_tps > predictions[1000].throughput_tps
    assert predictions[1000].bottleneck == "commit"
    assert predictions[25].bottleneck == "endorsement"


@pytest.mark.parametrize("block_size", (100, 400))
def test_model_matches_simulator(block_size, cost_model):
    """Commit-bound points: model and simulator within 25 %."""

    scale = ExperimentScale(transactions=SIM_TXS, light_topology=True)
    spec = table1_spec(total_transactions=SIM_TXS, seed=7)
    simulated = run_round(
        Round(spec, _network_config(scale, block_size, True)), cost=cost_model
    )
    predicted = predict_point(
        block_size, total_transactions=SIM_TXS, cost=cost_model
    )
    assert simulated.throughput_tps == pytest.approx(
        predicted.throughput_tps, rel=0.25
    )


def test_model_predicts_timeout_flattening(cost_model):
    """Beyond batch_timeout * arrival_rate (= 600 txs at 300 tx/s, 2 s), the
    effective block size is timeout-capped, flattening the curve exactly as
    the paper's own numbers flatten for 600/800/1000."""

    predictions = predict_figure3((600, 800, 1000), cost=cost_model)
    tps = [predictions[size].throughput_tps for size in (600, 800, 1000)]
    assert tps[0] == tps[1] == tps[2]
