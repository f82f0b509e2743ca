"""End-to-end tests on the synchronous LocalNetwork."""

import json

import pytest

from repro.common.types import ValidationCode
from repro.gateway import Gateway
from repro.workload.iot import encode_call, reading_payload

from ..conftest import small_config
from repro.core.network import vanilla_network


def iot(network):
    return Gateway.connect(network).get_contract("iot")


def populate(network, keys):
    iot(network).submit_async("populate", json.dumps({"keys": keys}))
    network.flush()


def record(network, key, temperature, sequence, crdt=False, client=0):
    arg = encode_call([key], [key], reading_payload(key, temperature, sequence), crdt=crdt)
    return iot(network).submit_async("record", arg, client_index=client).tx_id


class TestLifecycle:
    def test_single_transaction_commits(self, fabric_net):
        populate(fabric_net, ["d1"])
        tx_id = record(fabric_net, "d1", 20, 0)
        fabric_net.flush()
        assert fabric_net.status_of(tx_id) is ValidationCode.VALID
        state = fabric_net.state_of("d1")
        assert state["tempReadings"] == [{"temperature": "20", "ts": "0"}]

    def test_block_cut_at_max_count_commits_without_flush(self, fabric_net):
        # fabric_net uses max_message_count=10 (plus the populate flush).
        populate(fabric_net, [f"d{i}" for i in range(10)])
        tx_ids = [record(fabric_net, f"d{i}", 20, i) for i in range(10)]
        # Tenth submission filled the block: statuses already present.
        assert all(fabric_net.status_of(t) is ValidationCode.VALID for t in tx_ids)

    def test_conflicting_transactions_fail_on_vanilla(self, fabric_net):
        populate(fabric_net, ["hot"])
        tx_ids = [record(fabric_net, "hot", 20 + i, i) for i in range(5)]
        fabric_net.flush()
        codes = [fabric_net.status_of(t) for t in tx_ids]
        assert codes[0] is ValidationCode.VALID
        assert all(code is ValidationCode.MVCC_READ_CONFLICT for code in codes[1:])
        assert fabric_net.success_count() == 1 + 1  # populate + first record

    def test_read_only_query_not_ordered(self, fabric_net):
        populate(fabric_net, ["d1"])
        blocks_before = fabric_net.ledger_of().height
        result = iot(fabric_net).evaluate("read_device", json.dumps({"key": "d1"}))
        assert result == {"deviceID": "d1", "tempReadings": []}
        fabric_net.flush()
        assert fabric_net.ledger_of().height == blocks_before

    def test_undeployed_chaincode_rejected(self, fabric_net):
        from repro.common.errors import FabricError

        with pytest.raises(FabricError):
            Gateway.connect(fabric_net).get_contract("ghostcc").submit_async("fn")


class TestConvergence:
    def test_all_peers_identical_after_run(self, fabric_net):
        populate(fabric_net, ["a", "b"])
        for i in range(6):
            record(fabric_net, "a" if i % 2 else "b", 20 + i, i)
        fabric_net.flush()
        fabric_net.assert_states_converged()

    def test_every_peer_chain_verifies(self, fabric_net):
        populate(fabric_net, ["a"])
        record(fabric_net, "a", 21, 0)
        fabric_net.flush()
        for index in range(len(fabric_net.peers)):
            assert fabric_net.ledger_of(index).verify_chain()

    def test_replay_matches_live_state_on_all_peers(self, fabric_net):
        populate(fabric_net, ["a"])
        for i in range(4):
            record(fabric_net, "a", 20 + i, i)
        fabric_net.flush()
        for peer in fabric_net.peers:
            rebuilt = peer.ledger.rebuild_state()
            assert rebuilt.snapshot_versions() == peer.ledger.state.snapshot_versions()


class TestBackwardCompatibility:
    def test_vanilla_peer_treats_crdt_flag_as_plain_write(self):
        """The paper's compatibility requirement: Fabric applications (and
        networks) keep working — a put_crdt on a *vanilla* network is simply
        MVCC-validated like any write."""

        network = vanilla_network(small_config(max_message_count=10))
        from repro.workload.iot import IoTChaincode

        network.deploy(IoTChaincode())
        populate(network, ["hot"])
        tx_ids = [record(network, "hot", 20 + i, i, crdt=True) for i in range(3)]
        network.flush()
        codes = [network.status_of(t) for t in tx_ids]
        assert codes[0] is ValidationCode.VALID
        assert all(code is ValidationCode.MVCC_READ_CONFLICT for code in codes[1:])
