"""Gateway API tests: one submit/evaluate surface over every transport.

Every scenario here runs the *same* contract code against the synchronous
``LocalNetwork``, the discrete-event ``SimulatedNetwork`` and a spawned
socket cluster — asserting the transport-agnosticism the Gateway exists for.
"""

import json

import pytest

from repro.common.config import NetworkConfig, OrdererConfig, TopologyConfig
from repro.common.errors import EndorsementError
from repro.common.types import ValidationCode
from repro.core.network import crdt_network, crdt_peer_factory, vanilla_network
from repro.fabric.costmodel import zero_latency_model
from repro.fabric.network import SimulatedNetwork
from repro.gateway import (
    Contract,
    EndorseError,
    Gateway,
    GatewayError,
    MVCCConflictError,
    SubmittedTransaction,
)
from repro.net import Cluster, SocketTransport
from repro.sim import Environment
from repro.workload.iot import IoTChaincode, encode_call, reading_payload

from ..conftest import small_config


def record_call(key: str, temperature: int, sequence: int, crdt: bool = False) -> str:
    return encode_call(
        [key], [key], reading_payload(key, temperature, sequence), crdt=crdt
    )


def sync_contract(crdt: bool = False, max_message_count: int = 10) -> Contract:
    build = crdt_network if crdt else vanilla_network
    network = build(small_config(max_message_count=max_message_count, crdt_enabled=crdt))
    network.deploy(IoTChaincode())
    return Gateway.connect(network).get_contract("iot")


def des_contract(crdt: bool = False, max_message_count: int = 10) -> Contract:
    env = Environment()
    config = NetworkConfig(
        topology=TopologyConfig(num_orgs=3, peers_per_org=2),
        orderer=OrdererConfig(max_message_count=max_message_count, batch_timeout_s=1.0),
        crdt_enabled=crdt,
    )
    network = SimulatedNetwork(
        env,
        config,
        cost=zero_latency_model(),
        peer_factory=crdt_peer_factory(config.crdt) if crdt else None,
    )
    network.deploy(IoTChaincode())
    return Gateway.connect(network).get_contract("iot")


#: How to stop what the running test spawned (a cluster, then its client).
_SPAWNED = []


def socket_contract(crdt: bool = False, max_message_count: int = 10) -> Contract:
    config = small_config(
        max_message_count=max_message_count, crdt_enabled=crdt, num_orgs=2, peers_per_org=1
    )
    cluster = Cluster.spawn(config, chaincodes=["repro.workload.iot:IoTChaincode"])
    _SPAWNED.append(cluster.terminate)
    transport = SocketTransport.connect(cluster.profile)
    _SPAWNED.append(transport.close)
    return Gateway.connect(transport).get_contract("iot")


@pytest.fixture(autouse=True)
def stop_spawned_clusters():
    yield
    while _SPAWNED:
        _SPAWNED.pop()()  # the client before its cluster


CONTRACT_BUILDERS = [sync_contract, des_contract, socket_contract]
BUILDER_IDS = ["sync", "des", "socket"]


class TestSubmitHappyPath:
    @pytest.mark.parametrize("build", CONTRACT_BUILDERS, ids=BUILDER_IDS)
    def test_submit_commits_and_returns_result(self, build):
        contract = build()
        result = contract.submit("populate", json.dumps({"keys": ["d1"]}))
        assert result == {"populated": 1}
        result = contract.submit("record", record_call("d1", 21, 0))
        assert result == {"written": ["d1"]}

    @pytest.mark.parametrize("build", CONTRACT_BUILDERS, ids=BUILDER_IDS)
    def test_submit_async_resolves_to_valid_status(self, build):
        contract = build()
        contract.submit("populate", json.dumps({"keys": ["d1"]}))
        tx = contract.submit_async("record", record_call("d1", 21, 0))
        assert isinstance(tx, SubmittedTransaction)
        status = tx.commit_status()
        assert status.code is ValidationCode.VALID
        assert status.tx_id == tx.tx_id
        assert status.block_num is not None
        assert tx.done

    @pytest.mark.parametrize("build", CONTRACT_BUILDERS, ids=BUILDER_IDS)
    def test_concurrent_submissions_share_a_block(self, build):
        contract = build(crdt=True)
        contract.submit("populate", json.dumps({"keys": ["hot"]}))
        txs = [
            contract.submit_async("record", record_call("hot", 20 + i, i, crdt=True))
            for i in range(4)
        ]
        statuses = [tx.commit_status() for tx in txs]
        assert all(s.code is ValidationCode.VALID for s in statuses)
        assert len({s.block_num for s in statuses}) == 1  # one shared block

    def test_commit_status_is_idempotent(self):
        contract = sync_contract()
        contract.submit("populate", json.dumps({"keys": ["d1"]}))
        tx = contract.submit_async("record", record_call("d1", 20, 0))
        first = tx.commit_status()
        second = tx.commit_status()
        assert first == second


class TestEvaluate:
    @pytest.mark.parametrize("build", CONTRACT_BUILDERS, ids=BUILDER_IDS)
    def test_evaluate_reads_committed_state(self, build):
        contract = build()
        contract.submit("populate", json.dumps({"keys": ["d1"]}))
        contract.submit("record", record_call("d1", 23, 0))
        state = contract.evaluate("read_device", json.dumps({"key": "d1"}))
        assert state["deviceID"] == "d1"
        assert [r["temperature"] for r in state["tempReadings"]] == ["23"]

    def test_evaluate_is_never_ordered(self):
        network = vanilla_network(small_config(max_message_count=10))
        network.deploy(IoTChaincode())
        contract = Gateway.connect(network).get_contract("iot")
        contract.submit("populate", json.dumps({"keys": ["d1"]}))
        height_before = network.ledger_of().height
        contract.evaluate("read_device", json.dumps({"key": "d1"}))
        network.flush()
        assert network.ledger_of().height == height_before

    def test_read_only_submit_is_not_ordered(self):
        # A submit whose rwset turns out read-only follows the paper's §3
        # semantics: endorsed, returned, never ordered.
        network = vanilla_network(small_config(max_message_count=10))
        network.deploy(IoTChaincode())
        contract = Gateway.connect(network).get_contract("iot")
        contract.submit("populate", json.dumps({"keys": ["d1"]}))
        height_before = network.ledger_of().height
        tx = contract.submit_async("read_device", json.dumps({"key": "d1"}))
        assert tx.ordered is False
        status = tx.commit_status()
        assert status.code is ValidationCode.VALID
        network.flush()
        assert network.ledger_of().height == height_before

    def test_read_only_submit_not_ordered_on_des_either(self):
        # Transport agnosticism: the DES flow also skips ordering for
        # read-only transactions, so ledger heights match the sync network.
        contract = des_contract()
        contract.submit("populate", json.dumps({"keys": ["d1"]}))
        network = contract.transport
        height_before = network.channel.ledger_of().height
        tx = contract.submit_async("read_device", json.dumps({"key": "d1"}))
        status = tx.commit_status()
        assert status.code is ValidationCode.VALID
        assert tx.ordered is False
        assert tx.result() == {"deviceID": "d1", "tempReadings": []}
        assert network.channel.ledger_of().height == height_before


class TestErrorPaths:
    @pytest.mark.parametrize("build", CONTRACT_BUILDERS, ids=BUILDER_IDS)
    def test_endorsement_failure_raises_endorse_error(self, build):
        contract = build()
        with pytest.raises(EndorseError) as excinfo:
            contract.submit("record", "this is not the json the chaincode wants")
        assert excinfo.value.tx_id
        assert excinfo.value.failure.reason
        # Compatibility: EndorseError is still an EndorsementError.
        assert isinstance(excinfo.value, EndorsementError)

    @pytest.mark.parametrize("build", CONTRACT_BUILDERS, ids=BUILDER_IDS)
    def test_endorsement_failure_surfaces_at_commit_status_not_submit(self, build):
        # Identical control flow on both transports: submit_async always
        # returns a handle; the failure is raised when it is resolved.
        contract = build()
        tx = contract.submit_async("record", "not json either")
        with pytest.raises(EndorseError):
            tx.commit_status()
        with pytest.raises(EndorseError):
            tx.result()
        assert tx.done

    @pytest.mark.parametrize("build", CONTRACT_BUILDERS, ids=BUILDER_IDS)
    def test_mvcc_conflict_raises_typed_commit_error(self, build):
        contract = build(max_message_count=2)
        contract.submit("populate", json.dumps({"keys": ["hot"]}))
        # Two conflicting read-modify-writes endorsed against the same
        # snapshot; they fill the 2-tx block, the first wins, the second
        # fails MVCC validation.
        first = contract.submit_async("record", record_call("hot", 20, 0))
        with pytest.raises(MVCCConflictError) as excinfo:
            contract.submit("record", record_call("hot", 30, 1))
        assert excinfo.value.code is ValidationCode.MVCC_READ_CONFLICT
        assert excinfo.value.status is not None
        assert first.commit_status().code is ValidationCode.VALID

    @pytest.mark.parametrize("build", CONTRACT_BUILDERS, ids=BUILDER_IDS)
    def test_commit_status_reports_conflict_without_raising(self, build):
        contract = build(max_message_count=2)
        contract.submit("populate", json.dumps({"keys": ["hot"]}))
        txs = [
            contract.submit_async("record", record_call("hot", 20 + i, i))
            for i in range(2)
        ]
        codes = [tx.commit_status().code for tx in txs]
        assert codes == [
            ValidationCode.VALID,
            ValidationCode.MVCC_READ_CONFLICT,
        ]

    def test_undeployed_chaincode_rejected(self):
        network = vanilla_network(small_config())
        gateway = Gateway.connect(network)
        from repro.common.errors import FabricError

        with pytest.raises(FabricError):
            gateway.get_contract("ghostcc").submit("fn")

    def test_connect_rejects_non_networks(self):
        with pytest.raises(GatewayError):
            Gateway.connect(object())


class TestFactoryEquivalence:
    """Vanilla and CRDT peers behave identically through the same Contract
    on a conflict-free workload — the paper's compatibility requirement."""

    @pytest.mark.parametrize("build", CONTRACT_BUILDERS, ids=BUILDER_IDS)
    def test_conflict_free_workload_identical(self, build):
        outcomes = {}
        for crdt in (False, True):
            contract = build(crdt=crdt)
            contract.submit("populate", json.dumps({"keys": ["a", "b", "c"]}))
            txs = [
                contract.submit_async(
                    "record", record_call(key, 20 + i, i, crdt=crdt)
                )
                for i, key in enumerate(["a", "b", "c"])
            ]
            statuses = [tx.commit_status() for tx in txs]
            reads = {
                key: contract.evaluate("read_device", json.dumps({"key": key}))
                for key in ["a", "b", "c"]
            }
            outcomes[crdt] = ([s.code for s in statuses], reads)
        vanilla_codes, vanilla_reads = outcomes[False]
        crdt_codes, crdt_reads = outcomes[True]
        assert vanilla_codes == crdt_codes == [ValidationCode.VALID] * 3
        assert vanilla_reads == crdt_reads

    def test_conflicting_workload_diverges_only_in_validation(self):
        # Same contract code; only the peer factory differs.  Vanilla fails
        # the conflicting transactions, CRDT merges them — the entire
        # difference between the systems is visible as commit statuses.
        results = {}
        for crdt in (False, True):
            contract = sync_contract(crdt=crdt)
            contract.submit("populate", json.dumps({"keys": ["hot"]}))
            txs = [
                contract.submit_async("record", record_call("hot", 20 + i, i, crdt=crdt))
                for i in range(3)
            ]
            results[crdt] = [tx.commit_status().succeeded for tx in txs]
        assert results[False] == [True, False, False]
        assert results[True] == [True, True, True]


class TestChannelRuntimeSharing:
    def test_front_ends_share_channel_wiring(self):
        """Both front-ends are shells over the same Channel runtime."""

        sync_net = vanilla_network(small_config())
        env = Environment()
        des_net = SimulatedNetwork(env, small_config(), cost=zero_latency_model())
        assert type(sync_net.channel) is type(des_net.channel)
        for channel in (sync_net.channel, des_net.channel):
            assert len(channel.peers) == 6  # 3 orgs x 2 peers
            assert len(channel.clients) == 4
            assert channel.name == channel.config.topology.channel

    def test_gateway_repr_names_transport(self):
        network = vanilla_network(small_config())
        gateway = Gateway.connect(network)
        assert "SyncTransport" in repr(gateway)
