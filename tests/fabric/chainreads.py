"""Mixed blocks, and the reads that must not tell a stored block from a decoded one.

A ledger handed its blocks' frames keeps only its newest ``DECODED_WINDOW``
blocks decoded and every older one as its compressed ``raw_block`` frame
plus the metadata, commit time and effective writes the peer attached.
:func:`assert_reads_alike` is every reader of the chain: the same blocks,
statuses, key histories, replayed state, chain check and status counts as
a ledger that kept every block decoded.  :func:`run_blocks` drives a
network through blocks that merged (even) and blocks MVCC cut short (odd)
and returns the blocks as they were cut; :func:`decoded_ledger` feeds those
blocks, with no frame, to a fresh peer built like the network's first.
"""

from __future__ import annotations

import dataclasses
import json

from repro.common.config import NetworkConfig, TopologyConfig, fabriccrdt_config
from repro.common.types import ValidationCode
from repro.core.network import crdt_network
from repro.fabric.block import CommittedBlock
from repro.fabric.ledger import DECODED_WINDOW, Ledger, StoredBlock
from repro.gateway import Gateway
from repro.workload.iot import IoTChaincode, encode_call, reading_payload

BLOCK_SIZE = 4
#: Blocks past the populate block: three windows and then some.
BLOCKS = 3 * DECODED_WINDOW + 2
HOT = "hot"
KEYS = [HOT] + [f"dev-{index}" for index in range(BLOCK_SIZE)]


def config(state_backend: str = "memory") -> NetworkConfig:
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


def run_blocks(network) -> list[CommittedBlock]:
    """Populate, then commit :data:`BLOCKS` blocks; the first peer's commits,
    each holding the block object the network cut."""

    committed: list[CommittedBlock] = []
    network.channel.peers[0].events.subscribe(lambda block, _peer: committed.append(block))
    network.deploy(IoTChaincode())
    contract = Gateway.connect(network).get_contract("iot")
    contract.submit("populate", json.dumps({"keys": KEYS}))
    for number in range(BLOCKS):
        handles = [contract.submit_async("record", call) for call in block_calls(number)]
        for handle in handles:
            handle.commit_status()
    return committed


def decoded_ledger(network_config: NetworkConfig, committed: list[CommittedBlock]) -> Ledger:
    """A ledger that was handed no frames: every block stays decoded."""

    network = crdt_network(network_config)
    network.deploy(IoTChaincode())
    peer = network.peers[0]
    for block in committed:
        peer.validate_and_commit(block.block, commit_time=block.commit_time)
    assert not any(type(entry) is StoredBlock for entry in peer.ledger._blocks)
    return peer.ledger


def assert_stored_past_window(ledger: Ledger) -> None:
    stored = [type(entry) is StoredBlock for entry in ledger._blocks]
    height = ledger.height
    assert height > 3 * DECODED_WINDOW
    assert stored == [True] * (height - DECODED_WINDOW) + [False] * DECODED_WINDOW


def assert_reads_alike(ledger: Ledger, reference: Ledger) -> None:
    """Every chain read of ``ledger`` returns what ``reference``'s does."""

    height = reference.height
    assert ledger.height == height
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
