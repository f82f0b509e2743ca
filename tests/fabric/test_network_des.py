"""Tests for the discrete-event network: flows, timers, and the conflict window."""

import json

from repro.common.config import NetworkConfig, OrdererConfig, TopologyConfig
from repro.common.types import ValidationCode
from repro.fabric.costmodel import CostModel, zero_latency_model
from repro.fabric.network import SimulatedNetwork
from repro.gateway import Gateway
from repro.sim import Environment, Fixed
from repro.workload.iot import IoTChaincode, encode_call, reading_payload


def build(env, max_count=5, cost=None, crdt=False, timeout_s=2.0):
    config = NetworkConfig(
        topology=TopologyConfig(num_orgs=1, peers_per_org=1),
        orderer=OrdererConfig(max_message_count=max_count, batch_timeout_s=timeout_s),
        crdt_enabled=crdt,
    )
    network = SimulatedNetwork(
        env, config, cost=cost if cost is not None else zero_latency_model()
    )
    network.deploy(IoTChaincode())
    return network


def submit(env, network, key, temperature, sequence, crdt=False):
    arg = encode_call([key], [key], reading_payload(key, temperature, sequence), crdt=crdt)
    return Gateway.connect(network).get_contract("iot").submit_async("record", arg)


class TestFlows:
    def test_transactions_commit_when_block_fills(self):
        env = Environment()
        network = build(env, max_count=3)
        network.bootstrap("iot", "populate", [(json.dumps({"keys": ["d"]}),)])
        for i in range(3):
            submit(env, network, f"d{i}", 20, i)
        env.run()
        peer = network.anchor_peer
        assert peer.ledger.height == 2  # bootstrap + one data block
        assert peer.stats.get("txs_valid") >= 3

    def test_batch_timeout_cuts_partial_block(self):
        env = Environment()
        network = build(env, max_count=100, timeout_s=2.0)
        submit(env, network, "d", 20, 0)
        env.run()
        peer = network.anchor_peer
        assert peer.ledger.height == 1
        committed = peer.ledger.block_at(0)
        assert committed.block.cut_reason == "timeout"
        assert env.now >= 2.0

    def test_count_cut_preempts_timer(self):
        env = Environment()
        network = build(env, max_count=2, timeout_s=50.0)
        submit(env, network, "a", 20, 0)
        submit(env, network, "b", 20, 1)
        env.run()
        assert network.anchor_peer.ledger.height == 1
        committed = network.anchor_peer.ledger.block_at(0)
        assert committed.block.cut_reason == "count"
        # The block committed immediately; only the stale (ignored) timer
        # kept the simulation alive until its no-op firing.
        assert committed.commit_time < 1.0

    def test_bootstrap_commits_everywhere_at_time_zero(self):
        env = Environment()
        config = NetworkConfig(
            topology=TopologyConfig(num_orgs=2, peers_per_org=2),
            orderer=OrdererConfig(max_message_count=5),
        )
        network = SimulatedNetwork(env, config, cost=zero_latency_model())
        network.deploy(IoTChaincode())
        network.bootstrap("iot", "populate", [(json.dumps({"keys": ["a", "b"]}),)])
        for node in network.peer_nodes:
            assert node.peer.ledger.height == 1
            assert node.peer.ledger.state.get_value("a") is not None
        assert env.now == 0.0


class TestConflictWindow:
    def test_endorsement_during_commit_window_sees_pre_block_state(self):
        """The mechanism behind the paper's §3: a proposal endorsed while a
        block's commit is in service reads the pre-block version and fails
        MVCC — the endorse-to-commit latency manufactures conflicts."""

        cost = zero_latency_model()
        cost = type(cost)(**{**cost.__dict__, "write_per_key_s": 1.0})
        env = Environment()
        network = build(env, max_count=1, cost=cost)
        network.bootstrap("iot", "populate", [(json.dumps({"keys": ["hot"]}),)])

        # First tx cuts a block immediately; its commit takes ~1 virtual
        # second.  The second tx endorses inside that window.
        submit(env, network, "hot", 20, 0)

        def delayed():
            yield env.timeout(0.5)
            submit(env, network, "hot", 21, 1)

        env.process(delayed())
        env.run()
        statuses = network.anchor_peer.ledger.count_statuses()
        assert statuses.get("VALID", 0) == 2  # populate + first record
        assert statuses.get("MVCC_READ_CONFLICT", 0) == 1

    def test_endorsement_after_commit_succeeds(self):
        cost = zero_latency_model()
        env = Environment()
        network = build(env, max_count=1, cost=cost)
        network.bootstrap("iot", "populate", [(json.dumps({"keys": ["hot"]}),)])
        submit(env, network, "hot", 20, 0)

        def later():
            yield env.timeout(5.0)  # well past the first commit
            submit(env, network, "hot", 21, 1)

        env.process(later())
        env.run()
        statuses = network.anchor_peer.ledger.count_statuses()
        assert statuses.get("MVCC_READ_CONFLICT", 0) == 0
        assert statuses.get("VALID", 0) == 3


class TestEndorsementPoolTiming:
    def test_pool_size_bounds_throughput(self):
        cost = CostModel(
            endorse_base_s=1.0,
            endorse_per_read_s=0.0,
            endorse_per_write_s=0.0,
            endorsement_pool_size=2,
            commit_base_s=0.0,
            vscc_per_tx_s=0.0,
            mvcc_per_read_s=0.0,
            write_per_key_s=0.0,
            write_per_kib_s=0.0,
            client_to_peer=Fixed(0.0),
            peer_to_client=Fixed(0.0),
            client_to_orderer=Fixed(0.0),
            orderer_to_peer=Fixed(0.0),
        )
        env = Environment()
        network = build(env, max_count=100, cost=cost, timeout_s=100.0)
        network.bootstrap("iot", "populate", [(json.dumps({"keys": ["d"]}),)])
        for i in range(6):
            submit(env, network, f"d{i}", 20, i)
        env.run(until=3.5)
        # 6 proposals at 1 s each on a pool of 2: three service rounds.
        in_flight = network.ordering.pending_count
        assert in_flight == 6  # all endorsed by t=3, orderer holds them
