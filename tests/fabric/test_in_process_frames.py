"""In-process peers keep old blocks as the one frame the channel encoded.

The in-process channel encodes each cut block once, as the ``raw_block``
payload a socket orderer would send, compresses it once, and hands that one
bytes object to every peer.  Each ledger keeps its newest
``DECODED_WINDOW`` blocks decoded and every older one as that shared frame.
Nothing that reads the chain can tell: on both state backends, over blocks
that merged and blocks MVCC cut short, every ledger reads like one handed no
frames, and every stored block decodes to the block the channel cut.  A
discrete-event network is handed no frames and keeps every block decoded.
"""

from __future__ import annotations

import zlib

import pytest

from repro.core.network import crdt_network
from repro.fabric.codec import dec_raw_block
from repro.fabric.costmodel import zero_latency_model
from repro.fabric.ledger import DECODED_WINDOW, StoredBlock
from repro.fabric.network import SimulatedNetwork
from repro.sim import Environment

from .chainreads import (
    assert_reads_alike,
    assert_stored_past_window,
    config,
    decoded_ledger,
    run_blocks,
)


@pytest.mark.parametrize("state_backend", ["memory", "sqlite"])
def test_every_in_process_ledger_reads_like_a_decoded_one(state_backend):
    network = crdt_network(config(state_backend))
    try:
        committed = run_blocks(network)
        reference = decoded_ledger(network.config, committed)
        for index in range(len(network.peers)):
            ledger = network.ledger_of(index)
            assert_stored_past_window(ledger)
            assert_reads_alike(ledger, reference)
    finally:
        network.close()


def test_every_stored_block_is_one_shared_frame_of_the_block_cut():
    network = crdt_network(config())
    cut = [committed.block for committed in run_blocks(network)]
    ledgers = [network.ledger_of(index) for index in range(len(network.peers))]
    assert len(ledgers) > 1
    for number, block in enumerate(cut[:-DECODED_WINDOW]):
        frame = ledgers[0]._blocks[number].frame
        assert all(ledger._blocks[number].frame is frame for ledger in ledgers)
        assert dec_raw_block(zlib.decompress(frame)) == block
    for ledger in ledgers:
        assert [committed.block for committed in ledger.blocks()] == cut


def test_a_des_ledger_keeps_every_block_decoded():
    env = Environment()
    network = SimulatedNetwork(env, config(), cost=zero_latency_model())
    try:
        run_blocks(network)
        ledger = network.channel.ledger_of(0)
        assert ledger.height > DECODED_WINDOW
        assert not any(type(entry) is StoredBlock for entry in ledger._blocks)
    finally:
        network.close()
        env.close()
