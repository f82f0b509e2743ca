"""End-to-end: real processes, real sockets, the full Gateway surface.

One module-scoped cluster (an orderer + two peers, each its own OS
process) serves every test: submission and commit statuses, CRDT merge
across process boundaries, evaluate, remote fingerprint convergence, and
the event service — block streams, contract events, checkpoint/resume —
running over deliver sockets.  The client is a light one: statuses ride
the anchor's status stream, and a mirror exists only once ``ledger_of`` /
an event stream asked for it.
"""

from __future__ import annotations

import dataclasses
import json
import socket

import pytest

from repro.common.config import TopologyConfig, fabriccrdt_config
from repro.common.serialization import from_bytes
from repro.common.types import ReadWriteSet, WriteItem
from repro.fabric.identity import SignedPayload
from repro.fabric.transaction import Proposal, TransactionEnvelope
from repro.gateway.gateway import Gateway
from repro.net import Cluster, FrameDecoder, SocketTransport
from repro.net.codec import encode_message
from repro.net.wire import enc_envelope, enc_proposal
from repro.workload.iot import encode_call, reading_payload

CHAINCODES = [
    "repro.workload.iot:IoTChaincode",
    "repro.core.counters:VotingChaincode",
]


def cluster_config(state_backend: str = "memory"):
    base = fabriccrdt_config(max_message_count=4, state_backend=state_backend)
    return dataclasses.replace(
        base,
        topology=TopologyConfig(num_orgs=2, peers_per_org=1),
        # No wall-clock cuts during tests: blocks cut on count or flush.
        orderer=dataclasses.replace(base.orderer, batch_timeout_s=3600.0),
    )


@pytest.fixture(scope="module")
def cluster():
    with Cluster.spawn(cluster_config(), chaincodes=CHAINCODES) as cluster:
        yield cluster


@pytest.fixture()
def transport(cluster):
    with SocketTransport.connect(cluster.profile) as transport:
        yield transport


def record_call(device: str, sequence: int, temperature: int = 20) -> str:
    return encode_call(
        read_keys=[device],
        write_keys=[device],
        payload=reading_payload(device, temperature=temperature, sequence=sequence),
        crdt=True,
    )


def asker(conn: socket.socket):
    """``ask(message) -> reply`` over one blocking connection."""

    decoder = FrameDecoder()

    def ask(message: dict) -> dict:
        conn.sendall(encode_message(message))
        while not (frames := decoder.feed(chunk := conn.recv(65536))):
            assert chunk, f"connection closed without a reply to {message['type']}"
        return from_bytes(frames[0])

    return ask


def test_every_node_answers_health_pings(cluster):
    pongs = cluster.health_check()
    assert set(pongs) == {"orderer", "Org1.peer0", "Org2.peer0"}
    assert cluster.alive()


def test_peer_answers_a_malformed_request_with_an_error_and_keeps_serving(cluster):
    # A non-numeric timestamp (or start_block) used to escape the handler: the
    # socket closed without a reply and every request queued behind it failed.
    anchor = cluster.profile.anchor_peer
    proposal = enc_proposal(
        Proposal("t", "c", "iot", "read_device", (), "Org1.client0")
    )
    with socket.create_connection((anchor.host, anchor.port), timeout=10) as conn:
        ask = asker(conn)
        for bad in (
            {"type": "endorse", "proposal": proposal, "timestamp": "abc"},
            {"type": "endorse", "proposal": proposal, "timestamp": None},
            {"type": "deliver_status", "start_block": "0"},
            {"type": "deliver", "start_block": -1},
        ):
            reply = ask(bad)
            assert reply["type"] == "error" and reply["error"], reply
            info = ask({"type": "ledger_info"})
            assert info["type"] == "ledger_info_result" and info["peer"] == anchor.name


def test_orderer_refuses_a_non_string_name_and_every_peer_keeps_committing(
    cluster, transport
):
    # A list where a name belongs used to pass the orderer's decoder, ride a
    # block to every peer and kill each of them in the tx index (tx_id), the
    # signature check (signer) or MVCC / the merge (a key).
    signed = SignedPayload(b"\x01" * 32, "Org1.client0", b"\x02" * 32)
    envelope = enc_envelope(
        TransactionEnvelope(
            proposal=Proposal("t", "ch", "iot", "record", (), "Org1.client0"),
            rwset=ReadWriteSet(writes=(WriteItem("dev-x", b"{}", is_crdt=True),)),
            endorsements=(signed,),
        )
    )
    orderer = cluster.profile.orderer
    with socket.create_connection((orderer.host, orderer.port), timeout=10) as conn:
        ask = asker(conn)
        for field, mutate in (
            ("tx_id", lambda env: env["proposal"].update(tx_id=["not", "a", "string"])),
            ("signer", lambda env: env["endorsements"][0].update(signer=["Org1"])),
            ("key", lambda env: env["rwset"]["writes"][0].update(key=["dev-x"])),
        ):
            bad = json.loads(json.dumps(envelope))
            mutate(bad)
            reply = ask({"type": "broadcast", "envelope": bad})
            assert reply["type"] == "error" and field in reply["error"], reply
        assert ask({"type": "ping"})["type"] == "pong"

    contract = Gateway.connect(transport).get_contract("iot")
    status = contract.submit_async("populate", json.dumps({"keys": ["dev-x"]})).commit_status()
    assert status.succeeded
    height = transport.ledger_info(0)["height"]
    transport.wait_for_height(height, timeout_s=10)
    infos = [transport.ledger_info(i) for i in range(2)]
    assert [info["height"] for info in infos] == [height, height]
    assert infos[0]["fingerprint"] == infos[1]["fingerprint"]
    assert cluster.alive()


def test_submit_commits_on_every_process_peer(cluster, transport):
    contract = Gateway.connect(transport).get_contract("iot")
    contract.submit("populate", json.dumps({"keys": ["dev-a"]}))

    submitted = [
        contract.submit_async("record", record_call("dev-a", i, 20 + i))
        for i in range(5)
    ]
    statuses = [tx.commit_status() for tx in submitted]
    assert all(status.succeeded for status in statuses)

    # Ground truth from the peer processes themselves, not the mirrors.
    height = transport.ledger_info(0)["height"]
    transport.wait_for_height(height, timeout_s=10)
    infos = [transport.ledger_info(i) for i in range(2)]
    assert infos[0]["fingerprint"] == infos[1]["fingerprint"]

    # The client-side mirrors (opened here) replayed the same chain byte-for-byte.
    assert transport.channel.world_states_converged()
    local = transport.channel.ledger_of(0).state.fingerprint().hex()
    assert local == infos[0]["fingerprint"]


def test_crdt_merge_happens_across_process_boundaries(cluster, transport):
    contract = Gateway.connect(transport).get_contract("iot")
    contract.submit("populate", json.dumps({"keys": ["dev-merge"]}))

    # Four concurrent read-modify-writes of one key, all in one block
    # (max_message_count is 4): vanilla Fabric would MVCC-kill three; the
    # CRDT merge keeps every reading.
    submitted = [
        contract.submit_async("record", record_call("dev-merge", i, 30 + i))
        for i in range(4)
    ]
    assert all(tx.commit_status().succeeded for tx in submitted)

    state = transport.channel.state_of("dev-merge")
    temperatures = {r["temperature"] for r in state["tempReadings"]}
    assert temperatures == {str(30 + i) for i in range(4)}


def test_evaluate_reads_without_ordering(cluster, transport):
    contract = Gateway.connect(transport).get_contract("iot")
    contract.submit("populate", json.dumps({"keys": ["dev-read"]}))
    height_before = transport.ledger_info(0)["height"]

    result = contract.evaluate("read_device", json.dumps({"key": "dev-read"}))
    assert result["deviceID"] == "dev-read"
    # Reads are never ordered: no block was cut by the evaluation.
    assert transport.ledger_info(0)["height"] == height_before


def test_block_events_stream_over_sockets_with_resume(cluster, transport):
    gateway = Gateway.connect(transport)
    contract = gateway.get_contract("voting")

    live = gateway.block_events(start_block=0)
    for i in range(4):
        contract.submit_async("vote", "election", "apple", f"voter{i}")
    transport.flush()
    transport.wait_for_height(transport.channel.ledger_of(0).height)
    transport.pump()

    seen = list(live)
    assert seen, "live stream saw no blocks"
    checkpoint = live.checkpoint()
    live.close()

    # More blocks commit while the consumer is down...
    for i in range(4):
        contract.submit_async("vote", "election", "banana", f"voter{4 + i}")
    transport.flush()
    transport.pump()

    # ...and the resumed stream replays exactly the missed ones.
    resumed = gateway.block_events(checkpoint=checkpoint)
    replayed = list(resumed)
    resumed.close()
    assert replayed
    first_new = replayed[0].block_number
    assert first_new == seen[-1].block_number + 1
    numbers = [event.block_number for event in replayed]
    assert numbers == sorted(numbers)


def test_contract_events_arrive_from_remote_commits(cluster, transport):
    gateway = Gateway.connect(transport)
    contract = gateway.get_contract("voting")

    stream = contract.contract_events(event_name="voted")
    submitted = [
        contract.submit_async("vote", "tally-test", option, f"cv{i}")
        for i, option in enumerate(["apple", "banana", "apple"])
    ]
    assert all(tx.commit_status().succeeded for tx in submitted)
    transport.pump()

    events = list(stream)
    stream.close()
    options = [event.payload["option"] for event in events]
    assert sorted(options) == ["apple", "apple", "banana"]

    tally = contract.evaluate("tally", "tally-test")
    assert tally == {"apple": 2, "banana": 1}


def test_sqlite_backend_cluster_converges():
    config = cluster_config(state_backend="sqlite")
    with Cluster.spawn(config, chaincodes=CHAINCODES[:1]) as cluster:
        with SocketTransport.connect(cluster.profile) as transport:
            contract = Gateway.connect(transport).get_contract("iot")
            contract.submit("populate", json.dumps({"keys": ["dev-sql"]}))
            tx = contract.submit_async("record", record_call("dev-sql", 0))
            assert tx.commit_status().succeeded
            transport.wait_for_height(transport.ledger_info(0)["height"])
            infos = [transport.ledger_info(i) for i in range(2)]
            assert infos[0]["fingerprint"] == infos[1]["fingerprint"]
            assert (
                transport.channel.ledger_of(0).state.fingerprint().hex()
                == infos[0]["fingerprint"]
            )
