"""A socket peer's ledger reads like one that keeps every block decoded.

A socket peer's ledger keeps only its newest ``DECODED_WINDOW`` blocks
decoded; an older block is its compressed ``raw_block`` frame plus the
metadata, commit time and effective writes the peer attached, decoded again
when read.  Every reader of the chain must not be able to tell: the same
blocks, statuses, key histories, replayed state, chain check and status
counts as a ledger handed no frames that committed the same blocks — on
both state backends, over blocks that merged and blocks MVCC cut short.  On
a spawned cluster, streams that replay a peer's stored blocks (a mirror
opened late, a second client's status stream) get every block with its
chain link.
"""

from __future__ import annotations

import json

import pytest

from repro.common.types import ValidationCode
from repro.core.network import crdt_network
from repro.fabric.codec import raw_block_payload
from repro.fabric.ledger import DECODED_WINDOW
from repro.gateway import Gateway
from repro.net import Cluster, SocketTransport

from ..fabric.chainreads import (
    BLOCK_SIZE,
    BLOCKS,
    KEYS,
    assert_reads_alike,
    assert_stored_past_window,
    block_calls,
    config,
    decoded_ledger,
    run_blocks,
)
from .framefeed import IOT_SPEC, feed, frame_fed_peer


@pytest.mark.parametrize("state_backend", ["memory", "sqlite"])
def test_a_frame_fed_ledger_equals_a_decoded_one(state_backend):
    network = crdt_network(config(state_backend))
    committed = run_blocks(network)
    reference = decoded_ledger(network.config, committed)
    peer = frame_fed_peer(network.config, network.peers[0].name)
    for block in committed:
        feed(peer, raw_block_payload(block.block), block.commit_time)
    assert_stored_past_window(peer.ledger)
    assert_reads_alike(peer.ledger, reference)


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
