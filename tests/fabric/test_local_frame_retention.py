"""A committed transaction costs six in-process peers one shared compressed frame.

The in-process channel encodes and compresses each cut block once and hands
the same bytes to every peer; a ledger keeps its newest ``DECODED_WINDOW``
blocks decoded and every older one as that frame beside its own flags,
commit time and effective writes.  What a committed transaction leaves
alive is then its share of one frame plus six peers' indexes and records,
not a decoded envelope.  On a six-peer ``LocalNetwork``, with every block
kept decoded, 25-transaction CRDT blocks on one hot key retained about
3 420 bytes per transaction and 100-transaction vanilla blocks about 2 740;
with shared frames about 1 650 and 990.

The bounds sit between the two.  They are traced bytes of live allocations
(``tracemalloc``) after a full collection, not timings, and repeat from
run to run.
"""

from __future__ import annotations

import gc
import json
import random
import tracemalloc

import pytest

from repro.common.config import fabric_config, fabriccrdt_config
from repro.core.network import crdt_network, vanilla_network
from repro.fabric.ledger import DECODED_WINDOW
from repro.fabric.transaction import TransactionEnvelope
from repro.gateway import Gateway
from repro.workload.iot import IoTChaincode, encode_call, reading_payload

WARMUP_BLOCKS = DECODED_WINDOW + 2
MEASURED_BLOCKS = 24

#: (network, block size, keys written, traced bytes retained per transaction at most)
SHAPES = {
    "crdt_hot": (crdt_network, fabriccrdt_config, 25, ["device-hot-0"], 2200),
    "vanilla": (vanilla_network, fabric_config, 100, [f"dev-{i:03d}" for i in range(100)], 1500),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_six_in_process_peers_keep_no_decoded_block_past_their_window(shape):
    build, make_config, block_size, keys, bound = SHAPES[shape]
    network = build(make_config(block_size))
    assert len(network.peers) == 6
    crdt = network.config.crdt_enabled
    network.deploy(IoTChaincode())
    contract = Gateway.connect(network).get_contract("iot")
    contract.submit("populate", json.dumps({"keys": keys}))
    rng = random.Random(7)

    def commit(first: int, count: int) -> None:
        for wave in range(first, first + count):
            handles = []
            for slot in range(block_size):
                key = keys[slot % len(keys)]
                payload = reading_payload(key, rng.randint(10, 35), wave * block_size + slot)
                call = encode_call([key], [key], payload, crdt=crdt)
                handles.append(contract.submit_async("record", call))
            assert all(handle.commit_status().succeeded for handle in handles)

    earlier = {id(obj) for obj in gc.get_objects() if isinstance(obj, TransactionEnvelope)}
    tracemalloc.start()
    try:
        commit(0, WARMUP_BLOCKS)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        commit(WARMUP_BLOCKS, MEASURED_BLOCKS)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    per_tx = (after - before) / (MEASURED_BLOCKS * block_size)
    assert per_tx <= bound, f"{per_tx:.0f} bytes retained per transaction"

    ledger = network.ledger_of(0)
    window = {
        tx.tx_id
        for number in range(ledger.height - DECODED_WINDOW, ledger.height)
        for tx in ledger.block_at(number).block.transactions
    }
    kept = [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, TransactionEnvelope) and id(obj) not in earlier
    ]
    assert kept and {tx.tx_id for tx in kept} <= window
