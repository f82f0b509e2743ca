"""A committed block costs a socket peer and the orderer its compressed frame.

A peer fed ``raw_block`` frames keeps its newest ``DECODED_WINDOW`` blocks
decoded and every older one as the frame it arrived in, zlib-compressed,
beside its validation flags, commit time and effective writes.  What a
committed transaction leaves alive is then its share of that record plus
the ledger's indexes, not a decoded envelope: on blocks of
``socket_crdt_hot``'s shape (25 CRDT records on one hot key, two orgs),
about 530 bytes per transaction, where keeping every block decoded retained
about 1 900.  The orderer keeps each cut block only as its compressed
``raw_block`` frame (about 220 bytes per transaction; 1 090 uncompressed).

The bounds sit between the two.  They are traced bytes of live
allocations (``tracemalloc``) after a full collection, not timings, and
repeat from run to run.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import random
import tracemalloc

from repro.common.config import OrdererConfig, TopologyConfig, fabriccrdt_config
from repro.core.network import crdt_network
from repro.fabric.codec import dec_raw_block, raw_block_payload
from repro.fabric.ledger import DECODED_WINDOW
from repro.fabric.orderer import OrderingService
from repro.fabric.transaction import TransactionEnvelope
from repro.gateway import Gateway
from repro.net.codec import HEADER_BYTES
from repro.net.ordererserver import OrdererState
from repro.workload.iot import IoTChaincode, encode_call, reading_payload

from .framefeed import feed, frame_fed_peer

#: Traced bytes retained per committed transaction, at most.
PEER_BOUND = 700
ORDERER_BOUND = 300

BLOCK_SIZE = 25
WARMUP_BLOCKS = DECODED_WINDOW + 2
MEASURED_BLOCKS = 24
HOT_KEY = "device-hot-0"


def hot_network():
    """Blocks of ``socket_crdt_hot``'s shape, committed in process."""

    config = dataclasses.replace(
        fabriccrdt_config(BLOCK_SIZE), topology=TopologyConfig(num_orgs=2, peers_per_org=1)
    )
    network = crdt_network(config)
    network.deploy(IoTChaincode())
    contract = Gateway.connect(network).get_contract("iot")
    contract.submit("populate", json.dumps({"keys": [HOT_KEY]}))
    rng = random.Random(7)
    for wave in range(WARMUP_BLOCKS + MEASURED_BLOCKS):
        handles = [
            contract.submit_async(
                "record",
                encode_call(
                    [HOT_KEY], [HOT_KEY],
                    reading_payload(HOT_KEY, rng.randint(10, 35), wave * BLOCK_SIZE + slot),
                    crdt=True,
                ),
            )
            for slot in range(BLOCK_SIZE)
        ]
        assert all(handle.commit_status().succeeded for handle in handles)
    return network


def hot_payloads() -> tuple[object, list[bytes]]:
    network = hot_network()
    payloads = [raw_block_payload(committed.block) for committed in network.ledger_of(0).blocks()]
    return network.config, payloads


def traced_after(step) -> int:
    step()
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_a_frame_fed_peer_keeps_no_decoded_block_past_its_window():
    config, payloads = hot_payloads()  # the in-process network is gone
    warmup, measured = payloads[: 1 + WARMUP_BLOCKS], payloads[1 + WARMUP_BLOCKS :]
    assert len(measured) == MEASURED_BLOCKS
    window = {
        tx.tx_id
        for payload in payloads[-DECODED_WINDOW:]
        for tx in dec_raw_block(payload).transactions
    }
    earlier = {id(obj) for obj in gc.get_objects() if isinstance(obj, TransactionEnvelope)}
    peer = frame_fed_peer(config, "Org1.peer0")
    tracemalloc.start()
    try:
        before = traced_after(lambda: [feed(peer, payload) for payload in warmup])
        after = traced_after(lambda: [feed(peer, payload) for payload in measured])
    finally:
        tracemalloc.stop()
    per_tx = (after - before) / (MEASURED_BLOCKS * BLOCK_SIZE)
    assert per_tx <= PEER_BOUND, f"{per_tx:.0f} bytes retained per transaction"

    kept = [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, TransactionEnvelope) and id(obj) not in earlier
    ]
    assert kept and {tx.tx_id for tx in kept} <= window
    assert peer.ledger.verify_chain()


def test_the_orderer_keeps_each_block_as_its_compressed_frame():
    _config, payloads = hot_payloads()
    blocks = [dec_raw_block(payload) for payload in payloads[1:]]
    state = OrdererState(
        OrderingService(OrdererConfig(max_message_count=BLOCK_SIZE, batch_timeout_s=3600.0))
    )
    tracemalloc.start()
    try:
        before = traced_after(lambda: state.publish(blocks[:WARMUP_BLOCKS]))
        after = traced_after(lambda: state.publish(blocks[WARMUP_BLOCKS:]))
    finally:
        tracemalloc.stop()
    per_tx = (after - before) / (MEASURED_BLOCKS * BLOCK_SIZE)
    assert per_tx <= ORDERER_BOUND, f"{per_tx:.0f} bytes of frames retained per transaction"
    assert state.frame(len(blocks) - 1)[HEADER_BYTES:] == payloads[-1]
