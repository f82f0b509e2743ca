"""The deployed chaincode's policy decides validity, on every runtime.

A client reads the channel's copy of a chaincode's endorsement policy only
to choose endorsers; VSCC on every peer evaluates the policy the chaincode
was deployed under, and nothing a client writes into its transaction can
change that.  Each test deploys ``iot`` under ``AND(Org1, Org2)`` and hands
ordering two envelopes as raw wire frames: one endorsed by Org1 alone, one
by both orgs.  Both frames still carry the ``proposal.policy`` that clients
used to send, set to ``OR(Org1)``; the decoder ignores it, so the first is
``ENDORSEMENT_POLICY_FAILURE`` and the second ``VALID`` on every peer.

A read is never ordered, so no policy gates it: under the same
``AND(Org1, Org2)``, ``evaluate`` returns the anchor's answer alone.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.common.config import NetworkConfig, OrdererConfig, TopologyConfig
from repro.common.hashing import sha256
from repro.common.serialization import to_bytes
from repro.common.types import ReadWriteSet, ValidationCode, WriteItem
from repro.fabric.client import AssembledTransaction
from repro.fabric.costmodel import zero_latency_model
from repro.fabric.localnet import LocalNetwork
from repro.fabric.network import SimulatedNetwork
from repro.fabric.nodes import send_after
from repro.fabric.policy import and_policy, or_policy
from repro.fabric.transaction import ProposalResponse, endorsed_payload_bytes
from repro.gateway import Gateway
from repro.net import Cluster, SocketTransport
from repro.net.profile import ChaincodeRef
from repro.net.wire import dec_envelope, enc_envelope, enc_policy_node
from repro.sim import Environment
from repro.workload.iot import IoTChaincode, initial_device_state

from ..net.test_cluster import asker

DEPLOYED = and_policy("Org1", "Org2")
CLAIMED = or_policy("Org1")
EXPECTED = {
    ("Org1",): ValidationCode.ENDORSEMENT_POLICY_FAILURE,
    ("Org1", "Org2"): ValidationCode.VALID,
}


def config(state_backend: str) -> NetworkConfig:
    # Both envelopes fill one block; no run reaches the batch timeout.
    return NetworkConfig(
        topology=TopologyConfig(num_orgs=2, peers_per_org=1),
        orderer=OrdererConfig(max_message_count=len(EXPECTED), batch_timeout_s=3600.0),
        state_backend=state_backend,
    )


def frame(channel, nonce: int, orgs: tuple[str, ...]) -> dict:
    """The wire form of an envelope endorsed by the peer of each of ``orgs``,
    assembled as a client that trusts ``CLAIMED`` would, and still carrying
    that policy in its proposal."""

    client = channel.client(0)
    proposal = client.new_proposal(channel.name, "iot", "populate", (str(nonce),))
    rwset = ReadWriteSet.build(writes=[WriteItem(f"forged-{nonce}", to_bytes({"n": nonce}))])
    result = to_bytes(None)
    response_hash = sha256(endorsed_payload_bytes(rwset, result, None))
    responses = [
        ProposalResponse(
            proposal.tx_id, f"{org}.peer0", rwset, result,
            channel.membership.sign_as(f"{org}.peer0", response_hash),
        )
        for org in orgs
    ]
    outcome = client.assemble(proposal, CLAIMED, responses)
    assert isinstance(outcome, AssembledTransaction)
    data = enc_envelope(outcome.envelope)
    data["proposal"]["policy"] = enc_policy_node(CLAIMED)
    return data


def statuses(channel, frames: dict) -> dict:
    return {
        orgs: [
            channel.ledger_of(index).transaction_status(data["proposal"]["tx_id"])
            for index in range(len(channel.peers))
        ]
        for orgs, data in frames.items()
    }


def expected(channel) -> dict:
    return {orgs: [code] * len(channel.peers) for orgs, code in EXPECTED.items()}


@pytest.mark.parametrize("state_backend", ["memory", "sqlite"])
def test_in_process_peers_evaluate_the_deployed_policy(state_backend):
    network = LocalNetwork(config(state_backend))
    try:
        network.deploy(IoTChaincode(), DEPLOYED)
        channel = network.channel
        frames = {orgs: frame(channel, nonce, orgs) for nonce, orgs in enumerate(EXPECTED)}
        for data in frames.values():
            network.transport.dispatch(
                network.orderer.submit(dec_envelope(data), 0.0), 0.0
            )
        assert statuses(channel, frames) == expected(channel)
    finally:
        network.close()


@pytest.mark.parametrize("state_backend", ["memory", "sqlite"])
def test_des_peers_evaluate_the_deployed_policy(state_backend):
    env = Environment()
    network = SimulatedNetwork(env, config(state_backend), cost=zero_latency_model())
    try:
        network.deploy(IoTChaincode(), DEPLOYED)
        channel = network.channel
        frames = {orgs: frame(channel, nonce, orgs) for nonce, orgs in enumerate(EXPECTED)}
        for data in frames.values():
            send_after(env, network.orderer_node.envelope_box, dec_envelope(data), 0.0)
        while env.peek() != float("inf") and any(
            channel.ledger_of(index).height == 0 for index in range(len(channel.peers))
        ):
            env.step()
        assert statuses(channel, frames) == expected(channel)
    finally:
        network.close()
        env.close()


def test_socket_peers_evaluate_the_chaincode_ref_policy():
    refs = [ChaincodeRef("repro.workload.iot:IoTChaincode", DEPLOYED)]
    with Cluster.spawn(config("memory"), chaincodes=refs) as cluster:
        with SocketTransport.connect(cluster.profile) as transport:
            channel = transport.channel
            assert channel.policy_for("iot") == DEPLOYED
            frames = {orgs: frame(channel, nonce, orgs) for nonce, orgs in enumerate(EXPECTED)}
            orderer = cluster.profile.orderer
            with socket.create_connection((orderer.host, orderer.port), timeout=10) as conn:
                ask = asker(conn)
                for data in frames.values():
                    reply = ask({"type": "broadcast", "envelope": data})
                    assert reply["type"] == "broadcast_ack", reply
            transport.wait_for_height(1, timeout_s=10)
            assert statuses(channel, frames) == expected(channel)


def read_back(network) -> None:
    """Commit a key under ``DEPLOYED`` (both orgs endorse), then evaluate it."""

    contract = Gateway.connect(network).get_contract("iot")
    assert contract.submit("populate", json.dumps({"keys": ["dev-0"]})) == {"populated": 1}
    read = contract.evaluate("read_device", json.dumps({"key": "dev-0"}))
    assert read == initial_device_state("dev-0")


@pytest.mark.parametrize("state_backend", ["memory", "sqlite"])
def test_in_process_evaluate_is_not_gated_by_the_deployed_policy(state_backend):
    network = LocalNetwork(config(state_backend))
    try:
        network.deploy(IoTChaincode(), DEPLOYED)
        read_back(network)
    finally:
        network.close()


def test_des_evaluate_is_not_gated_by_the_deployed_policy():
    env = Environment()
    network = SimulatedNetwork(env, config("memory"), cost=zero_latency_model())
    try:
        network.deploy(IoTChaincode(), DEPLOYED)
        read_back(network)
    finally:
        network.close()
        env.close()


def test_socket_evaluate_is_not_gated_by_the_chaincode_ref_policy():
    refs = [ChaincodeRef("repro.workload.iot:IoTChaincode", DEPLOYED)]
    with Cluster.spawn(config("memory"), chaincodes=refs) as cluster:
        with SocketTransport.connect(cluster.profile) as transport:
            read_back(transport)
