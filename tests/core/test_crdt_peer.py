"""End-to-end tests for the CRDT peer: the paper's core requirements.

§4.2 requirements checked here: *no failure* (every endorsement-valid CRDT
transaction commits), *no update loss* (all written readings survive the
merge), *compatibility* (non-CRDT transactions behave exactly as on Fabric),
plus determinism across peers.
"""

import json

from repro.common.config import CRDTConfig
from repro.common.serialization import from_bytes
from repro.common.types import ValidationCode
from repro.core.peer import CRDTPeer
from repro.fabric.block import Block
from repro.gateway import Gateway
from repro.workload.iot import IoTChaincode, encode_call, reading_payload

from ..conftest import small_config
from ..fabric.helpers import build_peer, endorsed_tx, seed_block, write_rwset
from repro.core.network import crdt_network


def crdt_peer(**kwargs):
    return build_peer(peer_cls=CRDTPeer, **kwargs)


def make_block(peer, txs):
    return Block.build(peer.ledger.height, peer.ledger.last_hash, tuple(txs))


class TestNoFailureRequirement:
    def test_all_conflicting_crdt_txs_commit(self):
        peer = crdt_peer()
        versions = seed_block(peer, {"hot": {"tempReadings": []}})
        txs = [
            endorsed_tx(
                peer,
                write_rwset(
                    ("hot", {"tempReadings": [{"t": str(i), "seq": str(i)}]}),
                    reads=(("hot", versions["hot"]),),
                    crdt=True,
                ),
                nonce=i,
            )
            for i in range(10)
        ]
        committed = peer.validate_and_commit(make_block(peer, txs))
        assert committed.metadata.valid_count == 10
        assert committed.metadata.invalid_count == 0

    def test_stale_reads_do_not_fail_crdt_txs(self):
        peer = crdt_peer()
        stale = seed_block(peer, {"hot": {"l": []}})["hot"]
        first = endorsed_tx(
            peer, write_rwset(("hot", {"l": ["a"]}), reads=(("hot", stale),), crdt=True), 1
        )
        peer.validate_and_commit(make_block(peer, [first]))
        # Same (now outdated) read version: vanilla would reject, CRDT commits.
        second = endorsed_tx(
            peer, write_rwset(("hot", {"l": ["b"]}), reads=(("hot", stale),), crdt=True), 2
        )
        committed = peer.validate_and_commit(make_block(peer, [second]))
        assert committed.metadata.code_for(0) is ValidationCode.VALID

    def test_endorsement_failures_still_fail(self):
        """No-failure covers *valid* transactions only: endorsement policy
        violations are still rejected (§4.2)."""

        peer = crdt_peer()
        tx = endorsed_tx(peer, write_rwset(("k", {"l": ["x"]}), crdt=True), 1)
        stripped = type(tx)(
            proposal=tx.proposal, rwset=tx.rwset, endorsements=(),
            chaincode_result=tx.chaincode_result,
        )
        committed = peer.validate_and_commit(make_block(peer, [stripped]))
        assert committed.metadata.code_for(0) is ValidationCode.ENDORSEMENT_POLICY_FAILURE


class TestNoUpdateLossRequirement:
    def test_all_readings_survive_within_block(self):
        peer = crdt_peer()
        txs = [
            endorsed_tx(
                peer,
                write_rwset(("dev", {"r": [{"t": str(i), "seq": str(i)}]}), crdt=True),
                nonce=i,
            )
            for i in range(25)
        ]
        peer.validate_and_commit(make_block(peer, txs))
        committed = from_bytes(peer.ledger.state.get_value("dev"))
        sequences = {item["seq"] for item in committed["r"]}
        assert sequences == {str(i) for i in range(25)}

    def test_duplicate_txids_merge_per_system_model(self):
        """§4.1: 'In the case that duplicate transactions are submitted,
        FabricCRDT also commits duplicate transactions' — the duplicate is
        flagged DUPLICATE_TXID like Fabric, but the *value* is merged
        idempotently, so no update is double-counted."""

        peer = crdt_peer()
        tx = endorsed_tx(peer, write_rwset(("dev", {"r": ["x"]}), crdt=True), 1)
        committed = peer.validate_and_commit(make_block(peer, [tx, tx]))
        assert committed.metadata.code_for(0) is ValidationCode.VALID
        assert committed.metadata.code_for(1) is ValidationCode.DUPLICATE_TXID
        assert from_bytes(peer.ledger.state.get_value("dev")) == {"r": ["x"]}


class TestCompatibility:
    def test_non_crdt_txs_mvcc_validated_in_same_block(self):
        peer = crdt_peer()
        versions = seed_block(peer, {"plain": {"v": 0}, "hot": {"l": []}})
        crdt_txs = [
            endorsed_tx(
                peer, write_rwset(("hot", {"l": [str(i)]}), crdt=True), nonce=i
            )
            for i in range(2)
        ]
        stale = versions["plain"]
        plain_writer = endorsed_tx(
            peer, write_rwset(("plain", {"v": 1}), reads=(("plain", stale),)), 10
        )
        plain_stale = endorsed_tx(
            peer, write_rwset(("plain", {"v": 2}), reads=(("plain", stale),)), 11
        )
        committed = peer.validate_and_commit(
            make_block(peer, [crdt_txs[0], plain_writer, plain_stale, crdt_txs[1]])
        )
        assert committed.metadata.code_for(0) is ValidationCode.VALID
        assert committed.metadata.code_for(1) is ValidationCode.VALID
        assert committed.metadata.code_for(2) is ValidationCode.MVCC_READ_CONFLICT
        assert committed.metadata.code_for(3) is ValidationCode.VALID


class TestCrossPeerDeterminism:
    def test_peers_commit_byte_identical_states(self, crdt_net):
        iot = Gateway.connect(crdt_net).get_contract("iot")
        iot.submit_async("populate", json.dumps({"keys": ["hot"]}))
        crdt_net.flush()
        for i in range(7):
            arg = encode_call(
                ["hot"], ["hot"], reading_payload("hot", 20 + i, i), crdt=True
            )
            iot.submit_async("record", arg, client_index=i % 4)
        crdt_net.flush()
        crdt_net.assert_states_converged()
        for peer in crdt_net.peers:
            rebuilt = peer.ledger.rebuild_state()
            assert rebuilt.snapshot_versions() == peer.ledger.state.snapshot_versions()

    def test_merged_value_reflects_block_order(self, crdt_net):
        iot = Gateway.connect(crdt_net).get_contract("iot")
        iot.submit_async("populate", json.dumps({"keys": ["hot"]}))
        crdt_net.flush()
        for i in range(3):
            arg = encode_call(["hot"], ["hot"], reading_payload("hot", 30 + i, i), crdt=True)
            iot.submit_async("record", arg)
        crdt_net.flush()
        state = crdt_net.state_of("hot")
        assert [r["temperature"] for r in state["tempReadings"]] == ["30", "31", "32"]


class TestStatsAccounting:
    def test_merge_counters_accumulate(self):
        peer = crdt_peer()
        txs = [
            endorsed_tx(peer, write_rwset(("k", {"l": [str(i)]}), crdt=True), nonce=i)
            for i in range(3)
        ]
        peer.validate_and_commit(make_block(peer, txs))
        assert peer.stats.get("crdt_blocks_merged") == 1
        assert peer.stats.get("crdt_txs_merged") == 3
        assert peer.stats.get("merge_ops_total") > 0
