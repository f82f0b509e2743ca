"""A committed transaction leaves no per-peer copy behind.

Six in-process peers commit the same blocks.  What a committed transaction
must keep alive is its share of the block's compressed frame (one bytes
object shared by every peer) plus each peer's *positions* of it: an ``int`` in the tx index and one per written
key in the key history, none of them GC-tracked.  A per-peer
``KeyModification``, ``Version`` or ``(block, index)`` tuple per write, or a
second ``(tx_index, write)`` list beside a vanilla block's write-sets, shows
up here as retained GC-tracked objects per committed transaction.

Measured with this module's own workload: copying indexes retained 30.3
objects per vanilla transaction (a ``KeyModification`` and a ``Version``
per peer and write, and the tx index's tuple) and 36.3 per FabricCRDT one;
position indexes 12.2 and 19.5, most of it the decoded block every peer
shared.  Now that each ledger keeps a block past its decoded window as the
one compressed frame the channel encoded, 2.9 and 10.7 remain; the bounds
sit just above those.  This is an object count, not a timing: it repeats
exactly from run to run.
"""

from __future__ import annotations

import gc
from typing import Optional

from repro.common.types import KeyModification, ValidationCode
from repro.core.network import crdt_network, vanilla_network
from repro.gateway import Gateway
from repro.workload.iot import IoTChaincode, encode_call, reading_payload

from ..conftest import small_config

#: Retained GC-tracked objects per committed transaction, at most.
VANILLA_BOUND = 4
CRDT_BOUND = 12


def _retained_per_tx(network, blocks: int, block_size: int, hot_keys: Optional[int] = None):
    """Commit ``blocks`` full blocks after one warm-up block; return the
    GC-tracked objects they left alive per committed transaction, and how
    many of those are ``KeyModification``s.

    Vanilla (``hot_keys=None``): distinct keys in a block, so MVCC rejects
    nothing.  CRDT: the block's writes share ``hot_keys`` keys.
    """

    network.deploy(IoTChaincode())
    contract = Gateway.connect(network).get_contract("iot")
    keys = [f"dev-{index:03d}" for index in range(block_size)]
    crdt = hot_keys is not None

    def commit_blocks(first: int, count: int) -> int:
        valid = 0
        for number in range(first, first + count):
            handles = []
            for slot in range(block_size):
                key = keys[slot % hot_keys] if crdt else keys[slot]
                call = encode_call(
                    [key], [key], reading_payload(key, 20, number * block_size + slot),
                    crdt=crdt,
                )
                handles.append(contract.submit_async("record", call))
            valid += sum(
                handle.commit_status().code is ValidationCode.VALID for handle in handles
            )
        return valid

    commit_blocks(0, 1)  # warm-up: caches, the keys' first versions
    gc.collect()
    before, modifications = len(gc.get_objects()), _key_modifications()
    committed = commit_blocks(1, blocks)
    gc.collect()
    assert committed == blocks * block_size
    per_tx = (len(gc.get_objects()) - before) / committed
    return per_tx, _key_modifications() - modifications


def _key_modifications() -> int:
    return sum(isinstance(obj, KeyModification) for obj in gc.get_objects())


def test_vanilla_commit_retains_no_per_peer_copy():
    network = vanilla_network(small_config(max_message_count=100))
    per_tx, modifications = _retained_per_tx(network, blocks=20, block_size=100)
    assert len(network.peers) == 6
    assert per_tx < VANILLA_BOUND, f"{per_tx:.1f} objects retained per transaction"
    assert modifications == 0
    # The history is still there, built on read.
    history = network.ledger_of(0).history_for_key("dev-000")
    assert len(history) == 21 and isinstance(history[0], KeyModification)


def test_crdt_commit_retains_one_merged_write_per_key():
    network = crdt_network(small_config(max_message_count=25, crdt_enabled=True))
    per_tx, modifications = _retained_per_tx(network, blocks=20, block_size=25, hot_keys=5)
    assert len(network.peers) == 6
    assert per_tx < CRDT_BOUND, f"{per_tx:.1f} objects retained per transaction"
    assert modifications == 0
