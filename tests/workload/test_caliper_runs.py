"""Small end-to-end runs through the declarative benchmark runner.

These are the integration tests for the full measured pipeline: DES network,
workload generation, pre-population, open-loop clients, metric collection —
declared as ``Benchmark``/``Round`` experiments.  Scales are tiny; the
full-scale runs live in benchmarks/.
"""

import pytest

from repro.common.config import (
    CRDTConfig,
    NetworkConfig,
    OrdererConfig,
    TopologyConfig,
)
from repro.workload.runner import Benchmark, Round
from repro.workload.spec import WorkloadSpec


def light_config(block_size, crdt_enabled, seed=0):
    return NetworkConfig(
        topology=TopologyConfig(num_orgs=1, peers_per_org=1),
        orderer=OrdererConfig(max_message_count=block_size),
        crdt=CRDTConfig(),
        crdt_enabled=crdt_enabled,
        seed=seed,
    )


def one_round(spec, config, **round_kwargs):
    return Benchmark([Round(spec, config, **round_kwargs)]).run().results[0]


SPEC = WorkloadSpec(total_transactions=200, rate_tps=300.0)


class TestCRDTRun:
    def test_all_transactions_succeed(self):
        result = one_round(SPEC, light_config(25, True))
        assert result.total_submitted == 200
        assert result.successful == 200
        assert result.failed == 0
        assert result.merge_ops > 0

    def test_throughput_and_latency_positive(self):
        result = one_round(SPEC, light_config(25, True))
        assert result.throughput_tps > 0
        assert result.avg_latency_s > 0
        assert result.duration_s >= 200 / 300.0 * 0.9


class TestFabricRun:
    def test_conflicting_workload_mostly_fails(self):
        result = one_round(SPEC.with_crdt(False), light_config(50, False))
        assert result.total_submitted == 200
        assert 1 <= result.successful < 50
        assert result.failure_codes.get("MVCC_READ_CONFLICT", 0) > 100

    def test_non_conflicting_workload_all_succeeds(self):
        spec = WorkloadSpec(total_transactions=150, rate_tps=300.0, conflict_pct=0.0,
                            use_crdt=False)
        result = one_round(spec, light_config(50, False))
        assert result.successful == 150


class TestDeterminism:
    def test_same_seed_same_metrics(self):
        first = one_round(SPEC, light_config(25, True, seed=3))
        second = one_round(SPEC, light_config(25, True, seed=3))
        assert first.throughput_tps == pytest.approx(second.throughput_tps)
        assert first.avg_latency_s == pytest.approx(second.avg_latency_s)
        assert first.successful == second.successful
        assert first.blocks_committed == second.blocks_committed


class TestTopologies:
    def test_full_paper_topology_converges(self):
        spec = WorkloadSpec(total_transactions=60, rate_tps=300.0)
        config = NetworkConfig(
            topology=TopologyConfig(num_orgs=3, peers_per_org=2),
            orderer=OrdererConfig(max_message_count=25),
            crdt_enabled=True,
        )
        from repro.sim import Environment
        from repro.gateway import Gateway
        from repro.workload.clients import OpenLoopClient, RoundContext
        from repro.workload.generator import generate_plan, keys_to_populate
        from repro.workload.iot import IOT_CHAINCODE_NAME, IoTChaincode
        from repro.workload.metrics import MetricsCollector
        from repro.workload.rate import FixedRate
        from repro.workload.runner import build_network, populate_ledger

        env = Environment()
        network = build_network(env, config)
        network.deploy(IoTChaincode())
        plan = generate_plan(spec)
        populate_ledger(network, keys_to_populate(spec, plan))
        gateway = Gateway.connect(network)
        collector = MetricsCollector(env, expected=len(plan))
        collector.observe(gateway.block_events())
        contract = gateway.get_contract(IOT_CHAINCODE_NAME)
        OpenLoopClient().start(
            RoundContext(
                env=env,
                gateway=gateway,
                contract=contract,
                plan=plan,
                collector=collector,
                rate=FixedRate(spec.rate_tps),
            )
        )
        env.run(until=collector.done)
        # All six peers converge to identical world states.  Peers may still
        # be committing the last block when the anchor finished; drain
        # remaining events first.
        env.run()
        reference = network.peers()[0].ledger.state.snapshot_versions()
        for peer in network.peers()[1:]:
            assert peer.ledger.state.snapshot_versions() == reference
