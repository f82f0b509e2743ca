"""Fault injection on the timed network: reordering, loss, and catch-up."""

import json
import random

from repro.common.config import NetworkConfig, OrdererConfig, TopologyConfig
from repro.fabric.costmodel import zero_latency_model
from repro.fabric.network import SimulatedNetwork
from repro.fabric.nodes import send_after
from repro.gateway import Gateway
from repro.sim import Environment, Uniform
from repro.workload.iot import IoTChaincode, encode_call, reading_payload


def build(env, cost=None, max_count=2):
    config = NetworkConfig(
        topology=TopologyConfig(num_orgs=1, peers_per_org=1),
        orderer=OrdererConfig(max_message_count=max_count, batch_timeout_s=1.0),
    )
    network = SimulatedNetwork(env, config, cost=cost or zero_latency_model())
    network.deploy(IoTChaincode())
    return network


def submit(env, network, key, sequence):
    arg = encode_call([], [key], reading_payload(key, 20, sequence), crdt=False)
    Gateway.connect(network).get_contract("iot").submit_async("record", arg)


class TestOutOfOrderDelivery:
    def test_blocks_arriving_out_of_order_commit_in_order(self):
        """High-variance orderer→peer latency can swap block deliveries;
        the peer's reorder buffer must commit them strictly in order."""

        cost = zero_latency_model()
        # Latency in [0, 2]s over blocks cut ~10 ms apart: frequent swaps.
        cost = type(cost)(**{**cost.__dict__, "orderer_to_peer": Uniform(0.0, 2.0)})
        env = Environment()
        network = build(env, cost=cost, max_count=1)
        for i in range(30):
            submit(env, network, f"d{i}", i)
        env.run()
        peer = network.anchor_peer
        assert peer.ledger.height == 30
        assert peer.ledger.verify_chain()
        assert peer.stats.get("txs_valid") == 30


class TestLossAndCatchup:
    def test_dropped_block_recovered_via_catchup(self):
        env = Environment()
        network = build(env, max_count=1)
        node = network.anchor_node

        # Submit one tx, then swallow its block delivery (simulated drop).
        original_box = node.block_box
        dropped = []

        real_put = original_box.put

        def lossy_put(item):
            if not dropped:
                dropped.append(item)

                class _Absorbed:
                    triggered = True
                    callbacks = None

                # Swallow silently: return an already-satisfied put event.
                return real_put.__self__.env.event().succeed()
            return real_put(item)

        original_box.put = lossy_put  # type: ignore[method-assign]
        submit(env, network, "a", 0)
        env.run()
        assert network.anchor_peer.ledger.height == 0  # block 0 lost
        original_box.put = real_put  # type: ignore[method-assign]

        # The next block arrives with number 1: the peer detects the gap and
        # fetches block 0 from the orderer archive.
        submit(env, network, "b", 1)
        env.run()
        peer = network.anchor_peer
        assert peer.ledger.height == 2
        assert peer.ledger.verify_chain()
        assert peer.stats.get("txs_valid") == 2

    def test_duplicate_deliveries_ignored(self):
        env = Environment()
        network = build(env, max_count=1)
        submit(env, network, "a", 0)
        env.run()
        block = network.orderer_node.archive[0]
        # Redeliver the same block twice.
        send_after(env, network.anchor_node.block_box, block, 0.0)
        send_after(env, network.anchor_node.block_box, block, 0.0)
        env.run()
        assert network.anchor_peer.ledger.height == 1

    def test_multi_peer_partition_heals(self):
        """Messages to one peer delayed massively; after they drain, both
        peers converge to identical states."""

        cost = zero_latency_model()
        env = Environment()
        config = NetworkConfig(
            topology=TopologyConfig(num_orgs=1, peers_per_org=2),
            orderer=OrdererConfig(max_message_count=1, batch_timeout_s=1.0),
        )
        network = SimulatedNetwork(env, config, cost=cost)
        network.deploy(IoTChaincode())
        network.bootstrap("iot", "populate", [(json.dumps({"keys": ["a"]}),)])
        for i in range(5):
            submit(env, network, f"d{i}", i)
        env.run()
        first, second = network.peers()
        assert first.ledger.state.snapshot_versions() == second.ledger.state.snapshot_versions()
