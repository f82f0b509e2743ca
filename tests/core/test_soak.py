"""Randomized soak: mixed CRDT / non-CRDT traffic, all invariants at once.

Drives a full 3-org × 2-peer FabricCRDT network with randomized interleaved
traffic — CRDT read-modify-writes on hot keys, plain writes on private keys,
random block boundaries — and then checks every global invariant the design
promises (DESIGN.md §7):

* every peer holds an identical world state (convergence);
* every hash chain verifies;
* replaying the chain (with CRDT re-merging via effective writes)
  reproduces the live state byte-for-byte;
* every CRDT transaction committed successfully (no-failure);
* the final document of each hot key contains every reading any CRDT
  transaction ever wrote to it (no-update-loss, with seed_from_state).
"""

import json
import random

from repro.common.config import CRDTConfig
from repro.common.types import ValidationCode
from repro.core.network import crdt_network
from repro.gateway import Gateway
from repro.workload.iot import IoTChaincode, encode_call, reading_payload

from ..conftest import small_config

HOT_KEYS = [f"hot-{i}" for i in range(3)]


def build_soak_network():
    config = small_config(
        max_message_count=7,
        crdt_enabled=True,
        crdt=CRDTConfig(seed_from_state=True),
    )
    network = crdt_network(config)
    network.deploy(IoTChaincode())
    iot = Gateway.connect(network).get_contract("iot")
    iot.submit_async("populate", json.dumps({"keys": HOT_KEYS}))
    network.flush()
    return network, iot


def test_randomized_soak():
    rng = random.Random(2026)
    network, iot = build_soak_network()

    crdt_sequences: dict[str, set[str]] = {key: set() for key in HOT_KEYS}
    crdt_tx_ids: list[str] = []
    plain_tx_ids: list[str] = []
    sequence = 0

    for _ in range(120):
        sequence += 1
        if rng.random() < 0.65:
            # CRDT read-modify-write on a hot key.
            key = rng.choice(HOT_KEYS)
            call = encode_call(
                [key], [key], reading_payload(key, rng.randint(10, 35), sequence),
                crdt=True,
            )
            tx = iot.submit_async("record", call, client_index=rng.randrange(4))
            crdt_tx_ids.append(tx.tx_id)
            crdt_sequences[key].add(str(sequence))
        else:
            # Plain write on a private key (never contended).
            key = f"private-{sequence}"
            call = encode_call(
                [], [key], reading_payload(key, rng.randint(10, 35), sequence),
                crdt=False,
            )
            plain_tx_ids.append(
                iot.submit_async("record", call, client_index=rng.randrange(4)).tx_id
            )
        if rng.random() < 0.15:
            network.flush()  # random block boundary
    network.flush()

    # -- no-failure: every CRDT transaction committed -------------------------
    for tx_id in crdt_tx_ids:
        assert network.status_of(tx_id) is ValidationCode.VALID
    for tx_id in plain_tx_ids:
        assert network.status_of(tx_id) is ValidationCode.VALID

    # -- convergence + chain integrity + replay --------------------------------
    network.assert_states_converged()
    for peer in network.peers:
        assert peer.ledger.verify_chain()
        rebuilt = peer.ledger.rebuild_state()
        assert rebuilt.snapshot_versions() == peer.ledger.state.snapshot_versions()
        for key in rebuilt.keys():
            assert rebuilt.get_value(key) == peer.ledger.state.get_value(key)

    # -- no-update-loss on every hot key ---------------------------------------
    for key in HOT_KEYS:
        committed = network.state_of(key)
        committed_sequences = {r["ts"] for r in committed["tempReadings"]}
        assert committed_sequences >= crdt_sequences[key], (
            f"{key}: lost readings {crdt_sequences[key] - committed_sequences}"
        )


def test_soak_is_deterministic():
    """Two identical soak runs leave identical world states."""

    def run():
        rng = random.Random(7)
        network, iot = build_soak_network()
        for sequence in range(40):
            key = rng.choice(HOT_KEYS)
            call = encode_call(
                [key], [key], reading_payload(key, rng.randint(10, 35), sequence),
                crdt=True,
            )
            iot.submit_async("record", call, client_index=rng.randrange(4))
            if rng.random() < 0.2:
                network.flush()
        network.flush()
        return {key: network.state_of(key) for key in HOT_KEYS}

    assert run() == run()
