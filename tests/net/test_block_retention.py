"""A wire-decoded block keeps one copy of what its transactions repeat.

Every transaction of a ``socket_crdt_hot`` block names the same channel,
chaincode, function, creator, signers and hot key, and reads the same
version.  ``dec_block`` decodes a block's envelopes against one
block-local table, so those exist once per decoded block on a committing
peer (and on a client mirror), not once per transaction.  Per transaction
that leaves the envelope, its proposal, read-write set and signatures
alive.  A transaction carries no endorsement policy (VSCC evaluates the
deployed chaincode's), so a decoded one holds none.

The bound sits between what a per-transaction decode retained (15.1
objects per transaction; 17.3 for a mirrored block, which adds its
effective writes) and what the shared table retains (10.2; 12.3).  This is
an object count, not a timing: it repeats exactly from run to run.
"""

from __future__ import annotations

import dataclasses
import gc
import json

from repro.common.config import TopologyConfig, fabriccrdt_config
from repro.common.serialization import from_bytes
from repro.common.types import ValidationCode
from repro.core.network import crdt_network
from repro.gateway import Gateway
from repro.net.codec import HEADER_BYTES, encode_message
from repro.net.wire import dec_block, dec_committed_block, enc_block, enc_committed_block
from repro.workload.iot import IoTChaincode, encode_call, reading_payload

#: Retained GC-tracked objects per decoded transaction, at most: a block
#: from the orderer, and a committed block a client mirror absorbs.
BLOCK_BOUND = 12
MIRRORED_BOUND = 14

BLOCK_SIZE = 25
DECODES = 40
HOT_KEY = "device-hot-0"


def hot_block():
    """One committed 25-transaction block of ``socket_crdt_hot``'s shape: two
    orgs with a peer each, every transaction a CRDT ``record`` on one key."""

    config = dataclasses.replace(
        fabriccrdt_config(BLOCK_SIZE), topology=TopologyConfig(num_orgs=2, peers_per_org=1)
    )
    network = crdt_network(config)
    network.deploy(IoTChaincode())
    contract = Gateway.connect(network).get_contract("iot")
    contract.submit("populate", json.dumps({"keys": [HOT_KEY]}))
    handles = [
        contract.submit_async(
            "record",
            encode_call([HOT_KEY], [HOT_KEY], reading_payload(HOT_KEY, 20 + slot, slot)),
        )
        for slot in range(BLOCK_SIZE)
    ]
    assert all(handle.commit_status().code is ValidationCode.VALID for handle in handles)
    committed = network.ledger_of(0).block_at(network.ledger_of(0).height - 1)
    assert len(committed.block.transactions) == BLOCK_SIZE
    return committed


def _retained_per_tx(decode, data) -> tuple[float, list]:
    decode(data)  # warm-up
    gc.collect()
    before = len(gc.get_objects())
    kept = [decode(data) for _ in range(DECODES)]
    gc.collect()
    return (len(gc.get_objects()) - before - 1) / (DECODES * BLOCK_SIZE), kept


def test_a_decoded_block_shares_what_its_transactions_repeat():
    committed = hot_block()
    frame = encode_message({"type": "raw_block", "block": enc_block(committed.block)})
    per_tx, blocks = _retained_per_tx(
        lambda payload: dec_block(from_bytes(payload)["block"]), frame[HEADER_BYTES:]
    )
    assert per_tx <= BLOCK_BOUND, f"{per_tx:.1f} objects retained per transaction"
    for block in blocks:
        assert block == committed.block and block.verify_integrity()
        txs = block.transactions
        assert not any(hasattr(tx.proposal, "policy") for tx in txs)
        assert len({id(tx.rwset.reads[0].version) for tx in txs}) == 1
        assert len({id(tx.rwset.writes[0].key) for tx in txs}) == 1
        assert len({id(tx.proposal.creator) for tx in txs}) == 1
    # Each decoded block has its own table: nothing outlives the block.
    assert blocks[0].transactions[0].rwset.reads[0].version is not (
        blocks[1].transactions[0].rwset.reads[0].version
    )


def test_a_mirrored_block_shares_the_same_way():
    committed = hot_block()
    per_tx, blocks = _retained_per_tx(dec_committed_block, enc_committed_block(committed))
    assert per_tx <= MIRRORED_BOUND, f"{per_tx:.1f} objects retained per transaction"
    for mirrored in blocks:
        assert mirrored.block == committed.block
        assert mirrored.writes_applied() == committed.writes_applied()
        txs = mirrored.block.transactions
        assert not any(hasattr(tx.proposal, "policy") for tx in txs)
        assert len({id(tx.rwset.reads[0].version) for tx in txs}) == 1
