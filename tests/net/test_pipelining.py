"""What the pipelined socket client promises, pinned.

``submit_async`` only queues the endorse frames (they leave, one write per
connection, at the next loop entry); a per-transaction flow collects the
replies and hands the envelope to the orderer.  These tests pin the
guarantees that make that safe: submission order is block order,
FIFO reply matching survives an expired request, ``flush``/``evaluate``
observe earlier un-awaited submissions, a fresh transport (and a mirror
opened later) starts caught up, and a dead deliver stream is a typed error
rather than a long wait.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import time

import pytest

from repro.common.config import TopologyConfig, fabriccrdt_config
from repro.core.network import crdt_network
from repro.gateway.errors import EndorseError
from repro.gateway.gateway import Gateway
from repro.net import Cluster, DeliverStreamError, SocketTransport
from repro.net.codec import queued_bytes
from repro.telemetry import Telemetry
from repro.workload.iot import IoTChaincode, encode_call, reading_payload

CHAINCODES = [
    "repro.workload.iot:IoTChaincode",
    "repro.core.counters:VotingChaincode",
]


def config(max_message_count: int = 10, batch_timeout_s: float = 3600.0):
    base = fabriccrdt_config(max_message_count=max_message_count)
    return dataclasses.replace(
        base,
        topology=TopologyConfig(num_orgs=2, peers_per_org=1),
        orderer=dataclasses.replace(base.orderer, batch_timeout_s=batch_timeout_s),
    )


@pytest.fixture(scope="module")
def shared_cluster():
    with Cluster.spawn(config(), chaincodes=CHAINCODES) as cluster:
        yield cluster


@pytest.fixture()
def cluster():
    with Cluster.spawn(config(max_message_count=4), chaincodes=CHAINCODES) as cluster:
        yield cluster


def record_call(device: str, sequence: int) -> str:
    return encode_call(
        read_keys=[device],
        write_keys=[device],
        payload=reading_payload(device, temperature=20 + sequence % 10, sequence=sequence),
        crdt=True,
    )


def peer_process(cluster, qualified: str):
    (proc,) = [p for p in cluster._processes if p.name == f"repro-peer-{qualified}"]
    return proc


def chain_tx_ids(ledger) -> list[str]:
    return [
        tx.tx_id
        for number in range(ledger.height)
        for tx in ledger.block_at(number).block.transactions
    ]


# -- (a) submission order is block order ---------------------------------------------


def test_unawaited_submissions_are_ordered_as_submitted_and_match_local():
    device = "dev-pipeline"
    populate = json.dumps({"keys": [device]})
    calls = [record_call(device, i) for i in range(100)]

    with crdt_network(config()) as network:
        network.deploy(IoTChaincode())
        local = Gateway.connect(network).get_contract("iot")
        local.submit("populate", populate)
        local_txs = [local.submit_async("record", call) for call in calls]
        network.flush()
        local_codes = [tx.commit_status().code for tx in local_txs]
        local_fingerprint = network.peers[0].ledger.state.fingerprint().hex()

    # A fresh cluster: transaction ids depend on the client's nonce sequence.
    with Cluster.spawn(config(), chaincodes=CHAINCODES[:1]) as cluster:
        with SocketTransport.connect(cluster.profile) as transport:
            contract = Gateway.connect(transport).get_contract("iot")
            contract.submit("populate", populate)
            submitted = [contract.submit_async("record", call) for call in calls]
            assert not any(tx.done for tx in submitted[-10:])  # nothing was awaited
            codes = [tx.commit_status().code for tx in submitted]

            ledger = transport.channel.ledger_of(0)
            assert ledger.height == 1 + 10  # populate, then ten full blocks
            assert chain_tx_ids(ledger)[1:] == [tx.tx_id for tx in submitted]
            assert [tx.tx_id for tx in submitted] == [tx.tx_id for tx in local_txs]
            assert codes == local_codes
            transport.wait_for_height(ledger.height)
            fingerprints = {transport.ledger_info(i)["fingerprint"] for i in range(2)}
            assert fingerprints == {local_fingerprint}


# -- (b) FIFO matching survives a timeout ----------------------------------------------


def test_late_reply_of_an_expired_request_is_dropped_not_mismatched(cluster):
    with SocketTransport.connect(cluster.profile, request_timeout_s=0.5) as transport:
        contract = Gateway.connect(transport).get_contract("iot")
        contract.submit("populate", json.dumps({"keys": ["dev-fifo"]}))
        anchor = peer_process(cluster, "Org1.peer0")
        os.kill(anchor.pid, signal.SIGSTOP)
        try:
            tx = contract.submit_async("record", record_call("dev-fifo", 0))
            with pytest.raises(EndorseError) as excinfo:
                tx.commit_status()
            reasons = [f.reason for f in excinfo.value.failure.failures]
            assert any("transport:" in r and "timed out" in r for r in reasons)
        finally:
            os.kill(anchor.pid, signal.SIGCONT)
        # The thawed peer now answers the expired endorse; the next request
        # on that connection must get its own reply, not that one.
        info = transport.ledger_info(0)
        assert info["type"] == "ledger_info_result" and info["peer"] == "Org1.peer0"
        assert contract.evaluate("read_device", json.dumps({"key": "dev-fifo"}))[
            "deviceID"
        ] == "dev-fifo"
        assert contract.submit_async("record", record_call("dev-fifo", 1)).commit_status().succeeded


# -- (c) flush / evaluate drain in-flight flows ---------------------------------------


def test_flush_and_evaluate_observe_unawaited_submissions(shared_cluster):
    with SocketTransport.connect(shared_cluster.profile) as transport:
        contract = Gateway.connect(transport).get_contract("iot")
        contract.submit("populate", json.dumps({"keys": ["dev-drain"]}))
        height = transport.ledger_info(0)["height"]

        first = [contract.submit_async("record", record_call("dev-drain", i)) for i in range(3)]
        ack = transport.flush()
        assert ack["blocks_cut"] == 1  # the three had reached the orderer
        transport.wait_for_height(height + 1)
        transport.pump()
        assert all(tx.done and tx.commit_status().succeeded for tx in first)

        second = [
            contract.submit_async("record", record_call("dev-drain", 10 + i)) for i in range(10)
        ]
        contract.evaluate("read_device", json.dumps({"key": "dev-drain"}))
        assert all(tx.flow.done() for tx in second)  # a full block: cut on count
        transport.wait_for_height(height + 2)
        state = contract.evaluate("read_device", json.dumps({"key": "dev-drain"}))
        assert {r["ts"] for r in state["tempReadings"]} >= {str(10 + i) for i in range(10)}


def test_endorse_frames_queued_by_submit_async_leave_at_the_next_loop_entry(shared_cluster):
    telemetry = Telemetry()
    with SocketTransport.connect(shared_cluster.profile, telemetry=telemetry) as transport:
        contract = Gateway.connect(transport).get_contract("iot")
        contract.submit("populate", json.dumps({"keys": ["dev-outbox"]}))
        frames = telemetry.metrics.get("repro_net_frames_total")
        writes = telemetry.metrics.get("repro_net_writes_total")
        sent, written = frames.value(direction="out", node="client"), writes.value(node="client")

        submitted = [
            contract.submit_async("record", record_call("dev-outbox", i)) for i in range(5)
        ]
        queued = {name: queued_bytes(conn.writer) for name, conn in transport._conns.items()}
        endorsers = [name for name, size in queued.items() if size]
        assert endorsers and "orderer" not in endorsers
        assert frames.value(direction="out", node="client") - sent == 5 * len(endorsers)
        assert writes.value(node="client") == written  # nothing has left yet

        transport.pump(0)  # one loop entry
        assert not any(queued_bytes(conn.writer) for conn in transport._conns.values())
        assert writes.value(node="client") > written
        assert all(tx.commit_status().succeeded for tx in submitted)


def test_close_lets_unawaited_submissions_reach_the_orderer(shared_cluster):
    with SocketTransport.connect(shared_cluster.profile) as transport:
        contract = Gateway.connect(transport).get_contract("iot")
        height = transport.ledger_info(0)["height"]
        for i in range(10):  # one full block, nothing awaited before close()
            contract.submit_async("record", record_call("dev-close", i))
    with SocketTransport.connect(shared_cluster.profile) as transport:
        transport.wait_for_height(height + 1, timeout_s=10)


# -- the catch-up barrier (the old mirror race) ---------------------------------------


def test_fresh_transport_starts_caught_up_and_live_means_now(shared_cluster):
    with SocketTransport.connect(shared_cluster.profile) as writer:
        voting = Gateway.connect(writer).get_contract("voting")
        old = [voting.submit_async("vote", "history", "apple", f"old{i}") for i in range(35)]
        writer.flush()
        assert old[-1].commit_status().succeeded
        writer.wait_for_height(writer.ledger_info(0)["height"])

    with SocketTransport.connect(shared_cluster.profile) as transport:
        # A mirror opened on a cluster with history is at its peer's height
        # when the call returns...
        channel = transport.channel
        assert all(mirror.ledger.height == 0 for mirror in channel.peers)  # not fed yet
        assert channel.ledger_of(1).height == transport.ledger_info(1)["height"] >= 4

        # ...and so is the one contract_events() opens: "live" means now.
        voting = Gateway.connect(transport).get_contract("voting")
        stream = voting.contract_events(event_name="voted")
        assert channel.ledger_of(0).height == transport.ledger_info(0)["height"] >= 4
        submitted = [
            voting.submit_async("vote", "fresh", option, f"new{i}")
            for i, option in enumerate(["apple", "banana", "apple"])
        ]
        assert all(tx.commit_status().succeeded for tx in submitted)
        transport.pump()
        events = list(stream)
        stream.close()
        assert sorted(e.payload["option"] for e in events) == ["apple", "apple", "banana"]


# -- a dead deliver stream is typed, counted, and prompt ----------------------------------


def test_dead_anchor_stream_fails_the_commit_wait_at_once(cluster):
    telemetry = Telemetry()
    with SocketTransport.connect(cluster.profile, telemetry=telemetry) as transport:
        contract = Gateway.connect(transport).get_contract("iot")
        contract.submit("populate", json.dumps({"keys": ["dev-stream"]}))
        tx = contract.submit_async("record", record_call("dev-stream", 0))
        contract.evaluate("read_device", json.dumps({"key": "dev-stream"}))
        assert tx.flow.done() and not tx.done  # endorsed, pending at the orderer

        anchor = peer_process(cluster, "Org1.peer0")
        anchor.kill()
        anchor.join(10.0)
        started = time.monotonic()
        with pytest.raises(DeliverStreamError) as excinfo:
            tx.commit_status()
        assert time.monotonic() - started < 5.0  # far below the 60 s commit timeout
        assert excinfo.value.peer == "Org1.peer0"
        counter = telemetry.metrics.get("repro_net_deliver_stream_errors_total")
        assert counter.value(peer="Org1.peer0", reason=excinfo.value.reason) == 1


def commits_survive_the_death_of_the_other_peer(cluster, mirror_opened: bool) -> None:
    with SocketTransport.connect(cluster.profile) as transport:
        contract = Gateway.connect(transport).get_contract("iot")
        contract.submit("populate", json.dumps({"keys": ["dev-other"]}))
        if mirror_opened:
            transport.wait_for_height(1)  # a mirror is opened at its peer's height *now*
            assert transport.channel.ledger_of(1).height == 1
            assert transport.deliver_streams()["Org2.peer0"] == "full"
        other = peer_process(cluster, "Org2.peer0")
        other.kill()
        other.join(10.0)
        submitted = [contract.submit_async("record", record_call("dev-other", i)) for i in range(5)]
        assert all(tx.commit_status().succeeded for tx in submitted)
        assert transport.deliver_streams() == {"Org1.peer0": "status"}
        if mirror_opened:
            assert transport.channel.ledger_of(1).height == 1  # what it held when its peer died


def test_dead_non_anchor_stream_does_not_fail_commits(cluster):
    # Never read, a non-anchor peer has no stream to lose.
    commits_survive_the_death_of_the_other_peer(cluster, mirror_opened=False)


def test_dead_non_anchor_stream_of_an_opened_mirror_does_not_fail_commits(cluster):
    commits_survive_the_death_of_the_other_peer(cluster, mirror_opened=True)


# -- the orderer's batch timeout is one timer, not a poll ---------------------------------


def test_batch_timeout_cuts_a_lone_envelope_on_time():
    with Cluster.spawn(
        config(batch_timeout_s=0.2), chaincodes=CHAINCODES[:1]
    ) as cluster, SocketTransport.connect(cluster.profile) as transport:
        contract = Gateway.connect(transport).get_contract("iot")
        contract.submit("populate", json.dumps({"keys": ["dev-timer"]}))
        started = time.monotonic()
        tx = contract.submit_async("record", record_call("dev-timer", 0))
        while not tx.done and time.monotonic() - started < 2.0:
            transport.pump(0.005)  # never flushes: only the timeout can cut
        elapsed = time.monotonic() - started
        assert tx.done and 0.2 <= elapsed < 0.35, elapsed
        ledger = transport.channel.ledger_of(0)
        assert ledger.block_at(ledger.height - 1).block.cut_reason == "timeout"
