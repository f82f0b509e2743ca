"""The submission lifecycle's contract, once, for all three transports.

``Transport`` owns the client side of a submission (propose, settle,
evaluate); ``SyncTransport``, ``DESTransport`` and ``SocketTransport`` only
move the messages.  So the same seeded calls must leave *identical* handle
state on every runtime, for each of the three things that can become of a
submission: an ordered write, a read-only invocation, a failed endorsement
round — and none of it may surface at ``submit_async()``.
"""

import dataclasses

import pytest

from repro import Gateway
from repro.common.config import NetworkConfig, OrdererConfig, TopologyConfig
from repro.core.counters import VotingChaincode
from repro.core.network import peer_factory_for
from repro.fabric.costmodel import zero_latency_model
from repro.fabric.localnet import LocalNetwork
from repro.fabric.network import SimulatedNetwork
from repro.gateway.errors import EndorseError
from repro.net import Cluster, SocketTransport
from repro.sim import Environment

VOTING_SPEC = "repro.core.counters:VotingChaincode"


def config(block_size: int = 4) -> NetworkConfig:
    # A batch timeout no run reaches: blocks are cut by count or by flush.
    return NetworkConfig(
        topology=TopologyConfig(num_orgs=2, peers_per_org=1),
        orderer=OrdererConfig(max_message_count=block_size, batch_timeout_s=3600.0),
        crdt_enabled=True,
    )


def sync_gateway(block_size: int = 4):
    network = LocalNetwork(config(block_size), peer_factory_for(config(block_size)))
    network.deploy(VotingChaincode())
    return Gateway.connect(network), network.close


def des_gateway(block_size: int = 4):
    network = SimulatedNetwork(
        Environment(), config(block_size), cost=zero_latency_model(),
        peer_factory=peer_factory_for(config(block_size)),
    )
    network.deploy(VotingChaincode())
    return Gateway.connect(network), network.close


def socket_gateway(block_size: int = 4):
    cluster = Cluster.spawn(config(block_size), chaincodes=[VOTING_SPEC])
    try:
        transport = SocketTransport.connect(cluster.profile)
    except BaseException:
        cluster.terminate()
        raise

    def close():
        transport.close()
        cluster.terminate()

    return Gateway.connect(transport), close


def handle_state(tx, raised_at_submit, hook_calls):
    """Everything a caller can observe of one resolved handle."""

    try:
        status = tx.commit_status()
        fate = (status.code.name, status.tx_id, status.block_num)
    except EndorseError as exc:
        fate = ("EndorseError", exc.tx_id, exc.failure.reason)
    try:
        result = tx.result()
    except EndorseError:
        result = "EndorseError"
    event = tx.chaincode_event
    return {
        "raised_at_submit": raised_at_submit,
        "tx_id": tx.tx_id,
        "chaincode": tx.chaincode,
        "function": tx.function,
        "fate": fate,
        "again": tx.commit_status().code.name if fate[0] != "EndorseError" else None,
        "ordered": tx.ordered,
        "done": tx.done,
        "result": result,
        "event": dataclasses.asdict(event) if event is not None else None,
        "endorse_failure": tx.endorse_failure is not None,
        "hook_calls": [tx_id for tx_id, _time in hook_calls],
    }


def drive(gateway) -> dict:
    """The same calls on any transport; one observation per outcome."""

    contract = gateway.get_contract("voting")
    calls = {
        "ordered": ("vote", "ballot", "yes", "alice"),
        "read_only": ("tally", "ballot"),
        "endorse_failed": ("vote", "too-few-arguments"),
    }
    observed = {}
    for client_index, (outcome, (function, *args)) in enumerate(calls.items()):
        hook_calls = []
        raised = None
        try:
            tx = contract.submit_async(
                function, *args, client_index=client_index,
                on_endorsement_failure=lambda tx_id, now: hook_calls.append((tx_id, now)),
            )
        except Exception as exc:  # the contract: never at submit_async()
            raised = repr(exc)
        observed[outcome] = handle_state(tx, raised, hook_calls)
    observed["tally"] = contract.evaluate("tally", "ballot")
    channel = gateway.channel
    observed["heights"] = sorted(
        {channel.ledger_of(index).height for index in range(len(channel.peers))}
    )
    return observed


@pytest.fixture(scope="module")
def observations():
    runs = {}
    for name, build in (
        ("sync", sync_gateway), ("des", des_gateway), ("socket", socket_gateway)
    ):
        gateway, close = build()
        try:
            runs[name] = drive(gateway)
        finally:
            close()
    return runs


TRANSPORTS = ["sync", "des", "socket"]


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_ordered_write_commits(observations, transport):
    seen = observations[transport]["ordered"]
    assert seen["raised_at_submit"] is None
    assert seen["fate"] == ("VALID", seen["tx_id"], 0)
    assert seen["again"] == "VALID"
    assert seen["ordered"] and seen["done"] and not seen["endorse_failure"]
    assert seen["result"] == {"ballot": "ballot", "option": "yes", "observed_total": 1}
    assert seen["event"]["name"] == "voted"
    assert seen["hook_calls"] == []
    assert observations[transport]["tally"] == {"yes": 1}
    assert observations[transport]["heights"] == [1]  # only the write was ordered


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_read_only_invocation_is_never_ordered(observations, transport):
    seen = observations[transport]["read_only"]
    assert seen["raised_at_submit"] is None
    assert seen["fate"] == ("VALID", seen["tx_id"], None)
    assert seen["again"] == "VALID"
    assert not seen["ordered"] and seen["done"] and not seen["endorse_failure"]
    assert seen["result"] == {"yes": 1}
    assert seen["event"] is None
    assert seen["hook_calls"] == []


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_failed_endorsement_round_surfaces_at_the_handle(observations, transport):
    seen = observations[transport]["endorse_failed"]
    assert seen["raised_at_submit"] is None
    assert seen["fate"][:2] == ("EndorseError", seen["tx_id"])
    assert seen["result"] == "EndorseError"
    assert not seen["ordered"] and seen["done"] and seen["endorse_failure"]
    assert seen["event"] is None
    assert seen["hook_calls"] == [seen["tx_id"]]  # exactly once, with that tx id


@pytest.mark.parametrize("transport", ["des", "socket"])
def test_handle_state_is_identical_to_the_inline_transport(observations, transport):
    assert observations[transport] == observations["sync"]


@pytest.mark.parametrize("build", [sync_gateway, des_gateway], ids=["sync", "des"])
def test_submit_batch_equals_that_many_submit_asyncs(build):
    votes = [("ballot", "yes", f"voter{i}") for i in range(6)]
    votes.insert(3, ("too-few-arguments",))

    def run(batched: bool):
        gateway, close = build(block_size=3)
        try:
            contract = gateway.get_contract("voting")
            failed = []

            def hook(tx_id, now):
                failed.append(tx_id)

            if batched:
                txs = contract.submit_batch("vote", votes, on_endorsement_failure=hook)
            else:
                txs = [
                    contract.submit_async("vote", *vote, on_endorsement_failure=hook)
                    for vote in votes
                ]
            fates = []
            for tx in txs:
                try:
                    status = tx.commit_status()
                    fates.append((tx.tx_id, status.code.name, status.block_num))
                except EndorseError:
                    fates.append((tx.tx_id, "EndorseError", None))
            return fates, failed, contract.evaluate("tally", "ballot")
        finally:
            close()

    batched, singles = run(batched=True), run(batched=False)
    assert batched == singles
    fates, failed, tally = batched
    assert [code for _, code, _ in fates].count("VALID") == 6
    assert failed == [fates[3][0]]
    assert {block for _, _, block in fates} == {0, 1, None}  # 3 + 3, one never ordered
    assert tally == {"yes": 6}
