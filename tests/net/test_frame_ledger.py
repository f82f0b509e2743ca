"""A ledger fed the frames its blocks arrived in reads like an in-process one.

A socket peer's ledger keeps only its newest ``DECODED_WINDOW`` blocks
decoded; an older block is its compressed ``raw_block`` frame plus the
metadata, commit time and effective writes the peer attached, decoded again
when read.  Every reader of the chain must not be able to tell: the same
blocks, statuses, key histories, replayed state, chain check and status
counts as the in-process ledger that committed the same blocks — on both
state backends, over blocks that merged and blocks MVCC cut short.  On a
spawned cluster, streams that replay a peer's stored blocks (a mirror opened
late, a second client's status stream) get every block with its chain link.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.common.config import TopologyConfig, fabriccrdt_config
from repro.common.types import ValidationCode
from repro.core.network import crdt_network
from repro.fabric.ledger import DECODED_WINDOW, StoredBlock
from repro.gateway import Gateway
from repro.net import Cluster, SocketTransport
from repro.workload.iot import IoTChaincode, encode_call, reading_payload

from .framefeed import IOT_SPEC, feed, frame_fed_peer, raw_block_payload

BLOCK_SIZE = 4
#: Blocks past the populate block: three windows and then some.
BLOCKS = 3 * DECODED_WINDOW + 2
HOT = "hot"
KEYS = [HOT] + [f"dev-{index}" for index in range(BLOCK_SIZE)]


def config(state_backend: str = "memory"):
    base = fabriccrdt_config(max_message_count=BLOCK_SIZE)
    return dataclasses.replace(
        base,
        topology=TopologyConfig(num_orgs=2, peers_per_org=1),
        orderer=dataclasses.replace(base.orderer, batch_timeout_s=3600.0),
        state_backend=state_backend,
    )


def block_calls(number: int) -> list[str]:
    """Even blocks merge: CRDT records on the hot key.  Odd blocks are vanilla:
    two transactions read and write the hot key (MVCC rejects the second)."""

    crdt = number % 2 == 0
    keys = [HOT, HOT, KEYS[1 + number % BLOCK_SIZE], KEYS[1 + (number + 1) % BLOCK_SIZE]]
    return [
        encode_call(
            [key], [key], reading_payload(key, 20 + slot, number * BLOCK_SIZE + slot), crdt=crdt
        )
        for slot, key in enumerate(keys)
    ]


def in_process_network(state_backend: str):
    network = crdt_network(config(state_backend))
    network.deploy(IoTChaincode())
    contract = Gateway.connect(network).get_contract("iot")
    contract.submit("populate", json.dumps({"keys": KEYS}))
    for number in range(BLOCKS):
        handles = [contract.submit_async("record", call) for call in block_calls(number)]
        for handle in handles:
            handle.commit_status()
    return network


@pytest.mark.parametrize("state_backend", ["memory", "sqlite"])
def test_a_frame_fed_ledger_equals_the_in_process_one(state_backend):
    network = in_process_network(state_backend)
    reference = network.ledger_of(0)
    peer = frame_fed_peer(network.config, network.peers[0].name)
    for committed in reference.blocks():
        feed(peer, raw_block_payload(committed.block), committed.commit_time)
    ledger = peer.ledger

    height = reference.height
    assert ledger.height == height > 3 * DECODED_WINDOW
    stored = [type(entry) is StoredBlock for entry in ledger._blocks]
    assert stored == [True] * (height - DECODED_WINDOW) + [False] * DECODED_WINDOW

    blocks = reference.blocks()
    assert [ledger.block_at(number) for number in range(height)] == list(blocks)
    assert ledger.blocks() == blocks
    assert any(committed.effective_writes is not None for committed in blocks[:-DECODED_WINDOW])
    assert any(committed.effective_writes is None for committed in blocks[1:-DECODED_WINDOW])
    for committed in blocks:
        for tx in committed.block.transactions:
            assert ledger.transaction_status(tx.tx_id) == reference.transaction_status(tx.tx_id)
    for key in KEYS:
        assert ledger.history_for_key(key) == reference.history_for_key(key)
        assert ledger.history_for_key(key)
    assert ledger.rebuild_state().fingerprint() == reference.rebuild_state().fingerprint()
    assert ledger.state.fingerprint() == reference.state.fingerprint()
    assert ledger.verify_chain() and reference.verify_chain()
    counts = ledger.count_statuses()
    assert counts == reference.count_statuses()
    assert counts[ValidationCode.MVCC_READ_CONFLICT.name] == BLOCKS // 2
    assert ledger.last_hash == reference.last_hash


@pytest.fixture()
def cluster():
    with Cluster.spawn(config(), chaincodes=[IOT_SPEC]) as cluster:
        yield cluster


def test_late_streams_replay_every_stored_block_on_a_cluster(cluster):
    with SocketTransport.connect(cluster.profile) as transport:
        contract = Gateway.connect(transport).get_contract("iot")
        contract.submit("populate", json.dumps({"keys": KEYS}))
        submitted = []
        for number in range(BLOCKS):
            submitted += [contract.submit_async("record", call) for call in block_calls(number)]
            for handle in submitted[-BLOCK_SIZE:]:
                handle.commit_status()
        height = transport.ledger_info(1)["height"]
        assert height > 3 * DECODED_WINDOW

        # A mirror opened now replays peer 1's stored blocks, each checked
        # against its predecessor's hash on the way in.
        mirror = transport.channel.ledger_of(1)
        assert mirror.height == height and mirror.verify_chain()
        assert mirror.state.fingerprint().hex() == transport.ledger_info(1)["fingerprint"]
        statuses = {tx.tx_id: transport.channel.statuses[tx.tx_id].code for tx in submitted}
        assert set(statuses.values()) == {
            ValidationCode.VALID, ValidationCode.MVCC_READ_CONFLICT
        }
        assert {tx_id: mirror.transaction_status(tx_id) for tx_id in statuses} == statuses

    # A second client's status stream replays the anchor's stored blocks from
    # block 0; its header chain is checked block by block.
    with SocketTransport.connect(cluster.profile) as late:
        assert {tx_id: late.channel.statuses[tx_id].code for tx_id in statuses} == statuses
        assert late.deliver_streams() == {cluster.profile.anchor_peer.name: "status"}
