"""Tests for the peer's commit pipeline: VSCC, duplicates, and MVCC.

Includes the paper's §3 worked example (transactions T1–T5 against world
state {K1, K2, K3}): T1 valid, T2 and T3 invalidated by T1's update of K2,
T4 and T5 valid.  (The paper's listing writes T4's read version of K3 as
"VN2"; from the stated outcome this denotes K3's *current* committed
version — a notation slip — so the test reads K3 at its live version.)
"""

import pytest

from repro.common.types import ReadItem, ReadWriteSet, ValidationCode, Version, WriteItem
from repro.common.serialization import to_bytes
from repro.fabric.block import GENESIS_PREVIOUS_HASH, Block
from repro.fabric.policy import and_policy
from repro.fabric.store import MemoryStore, SqliteStore

from .helpers import build_peer, endorsed_tx, seed_block, seed_state, write_rwset


def make_block(peer, txs, number=None):
    return Block.build(
        number if number is not None else peer.ledger.height,
        peer.ledger.last_hash,
        tuple(txs),
    )


class TestSection3Example:
    def test_t1_valid_t2_t3_conflict_t4_t5_valid(self):
        peer = build_peer()
        versions = seed_block(
            peer, {"K1": {"v": "VL1"}, "K2": {"v": "VL2"}, "K3": {"v": "VL3"}}
        )
        vn1, vn2, vn3 = versions["K1"], versions["K2"], versions["K3"]

        t1 = endorsed_tx(peer, write_rwset(("K2", {"v": "VL1"}), reads=(("K2", vn2),)), 1)
        t2 = endorsed_tx(
            peer,
            write_rwset(("K3", {"v": "VL3"}), reads=(("K1", vn1), ("K2", vn2))),
            2,
        )
        t3 = endorsed_tx(peer, write_rwset(("K3", {"v": "VL1"}), reads=(("K2", vn2),)), 3)
        t4 = endorsed_tx(peer, write_rwset(("K2", {"v": "VL1"}), reads=(("K3", vn3),)), 4)
        t5 = endorsed_tx(peer, write_rwset(("K3", {"v": "VL2"})), 5)  # write-only

        committed = peer.validate_and_commit(make_block(peer, [t1, t2, t3, t4, t5]))
        codes = [committed.metadata.code_for(i) for i in range(5)]
        assert codes == [
            ValidationCode.VALID,
            ValidationCode.MVCC_READ_CONFLICT,
            ValidationCode.MVCC_READ_CONFLICT,
            ValidationCode.VALID,
            ValidationCode.VALID,
        ]

    def test_write_only_transactions_never_conflict(self):
        """§3: 'these transactions will not cause any read-write set
        conflict' — write transactions have an empty read set."""

        peer = build_peer()
        txs = [endorsed_tx(peer, write_rwset(("K", {"n": i})), nonce=i) for i in range(3)]
        committed = peer.validate_and_commit(make_block(peer, txs))
        assert committed.metadata.valid_count == 3
        # Last write wins in the world state.
        assert peer.ledger.state.get_value("K") == to_bytes({"n": 2})


class TestMVCC:
    def test_stale_read_from_previous_block(self):
        peer = build_peer()
        stale = seed_block(peer, {"K": {"v": 0}})["K"]
        first = endorsed_tx(peer, write_rwset(("K", {"v": 1}), reads=(("K", stale),)), 1)
        peer.validate_and_commit(make_block(peer, [first]))
        second = endorsed_tx(peer, write_rwset(("K", {"v": 2}), reads=(("K", stale),)), 2)
        committed = peer.validate_and_commit(make_block(peer, [second]))
        assert committed.metadata.code_for(0) is ValidationCode.MVCC_READ_CONFLICT

    def test_read_of_never_written_key_with_nil_version_valid(self):
        peer = build_peer()
        tx = endorsed_tx(peer, write_rwset(("K", {"v": 1}), reads=(("ghost", None),)), 1)
        committed = peer.validate_and_commit(make_block(peer, [tx]))
        assert committed.metadata.code_for(0) is ValidationCode.VALID

    def test_read_of_deleted_key_conflicts(self):
        peer = build_peer()
        version = seed_block(peer, {"K": {"v": 0}})["K"]
        delete = endorsed_tx(
            peer,
            ReadWriteSet.build(writes=[WriteItem("K", b"", is_delete=True)]),
            1,
        )
        peer.validate_and_commit(make_block(peer, [delete]))
        stale_reader = endorsed_tx(
            peer, write_rwset(("other", {"x": 1}), reads=(("K", version),)), 2
        )
        committed = peer.validate_and_commit(make_block(peer, [stale_reader]))
        assert committed.metadata.code_for(0) is ValidationCode.MVCC_READ_CONFLICT

    def test_in_block_dependency_detected(self):
        peer = build_peer()
        version = seed_block(peer, {"K": {"v": 0}})["K"]
        writer = endorsed_tx(peer, write_rwset(("K", {"v": 1}), reads=(("K", version),)), 1)
        reader = endorsed_tx(peer, write_rwset(("K", {"v": 2}), reads=(("K", version),)), 2)
        committed = peer.validate_and_commit(make_block(peer, [writer, reader]))
        assert committed.metadata.code_for(0) is ValidationCode.VALID
        assert committed.metadata.code_for(1) is ValidationCode.MVCC_READ_CONFLICT

    def test_versions_assigned_by_block_and_tx_index(self):
        peer = build_peer()
        tx_a = endorsed_tx(peer, write_rwset(("A", {})), 1)
        tx_b = endorsed_tx(peer, write_rwset(("B", {})), 2)
        peer.validate_and_commit(make_block(peer, [tx_a, tx_b]))
        assert peer.ledger.state.get_version("A") == Version(0, 0)
        assert peer.ledger.state.get_version("B") == Version(0, 1)


class TestVSCCAndDuplicates:
    def test_missing_endorsements_fail_policy(self):
        peer = build_peer()
        tx = endorsed_tx(peer, write_rwset(("K", {})), 1)
        bare = type(tx)(
            proposal=tx.proposal, rwset=tx.rwset, endorsements=(),
            chaincode_result=tx.chaincode_result,
        )
        committed = peer.validate_and_commit(make_block(peer, [bare]))
        assert committed.metadata.code_for(0) is ValidationCode.ENDORSEMENT_POLICY_FAILURE

    def test_unsatisfying_orgs_fail_policy(self):
        peer = build_peer(policy=and_policy("Org1", "Org2"))
        tx = endorsed_tx(peer, write_rwset(("K", {})), 1, endorser_orgs=["Org1"])
        committed = peer.validate_and_commit(make_block(peer, [tx]))
        assert committed.metadata.code_for(0) is ValidationCode.ENDORSEMENT_POLICY_FAILURE

    def test_multi_org_policy_satisfied(self):
        peer = build_peer(policy=and_policy("Org1", "Org2"))
        tx = endorsed_tx(peer, write_rwset(("K", {})), 1, endorser_orgs=["Org1", "Org2"])
        committed = peer.validate_and_commit(make_block(peer, [tx]))
        assert committed.metadata.code_for(0) is ValidationCode.VALID

    @pytest.mark.parametrize("store", [MemoryStore, SqliteStore], ids=["memory", "sqlite"])
    def test_an_undeployed_chaincode_is_a_code_not_a_crash(self, store):
        peer = build_peer(store=store())
        txs = [
            endorsed_tx(peer, write_rwset(("A", {})), 1),
            endorsed_tx(peer, write_rwset(("B", {})), 2, chaincode="ghost"),
            endorsed_tx(peer, write_rwset(("C", {})), 3),
        ]
        committed = peer.validate_and_commit(make_block(peer, txs))
        assert committed.metadata.flags == [
            ValidationCode.VALID,
            ValidationCode.INVALID_ENDORSER_TRANSACTION,
            ValidationCode.VALID,
        ]
        assert peer.ledger.height == 1
        assert [peer.ledger.state.get_value(key) is None for key in "ABC"] == [
            False, True, False,
        ]

    def test_tampered_rwset_fails_vscc(self):
        peer = build_peer()
        tx = endorsed_tx(peer, write_rwset(("K", {"v": 1})), 1)
        tampered = tx.with_rwset(write_rwset(("K", {"v": 666})))
        committed = peer.validate_and_commit(make_block(peer, [tampered]))
        assert committed.metadata.code_for(0) is ValidationCode.ENDORSEMENT_POLICY_FAILURE

    def test_duplicate_txid_within_block(self):
        peer = build_peer()
        tx = endorsed_tx(peer, write_rwset(("K", {})), 1)
        committed = peer.validate_and_commit(make_block(peer, [tx, tx]))
        assert committed.metadata.code_for(0) is ValidationCode.VALID
        assert committed.metadata.code_for(1) is ValidationCode.DUPLICATE_TXID

    def test_duplicate_txid_across_blocks(self):
        peer = build_peer()
        tx = endorsed_tx(peer, write_rwset(("K", {})), 1)
        peer.validate_and_commit(make_block(peer, [tx]))
        committed = peer.validate_and_commit(make_block(peer, [tx]))
        assert committed.metadata.code_for(0) is ValidationCode.DUPLICATE_TXID


class TestPhantomReads:
    def _range_tx(self, peer, nonce, reads_hash_state):
        """A tx that recorded a range query over ['a', 'z') at endorse time."""

        from repro.fabric.chaincode import ShimStub

        stub = ShimStub(reads_hash_state, f"sim{nonce}")
        stub.get_state_by_range("a", "z")
        stub.put_state("out", {"n": nonce})
        return endorsed_tx(peer, stub.build_rwset(), nonce)

    def test_unchanged_range_passes(self):
        peer = build_peer()
        seed_state(peer, "apple", {"v": 1}, 0, 0)
        tx = self._range_tx(peer, 1, peer.ledger.state)
        committed = peer.validate_and_commit(make_block(peer, [tx]))
        assert committed.metadata.code_for(0) is ValidationCode.VALID

    def test_phantom_insert_detected(self):
        peer = build_peer()
        seed_state(peer, "apple", {"v": 1}, 0, 0)
        tx = self._range_tx(peer, 1, peer.ledger.state)
        # A key appears in the range after simulation, before commit.
        seed_state(peer, "banana", {"v": 2}, 0, 1)
        committed = peer.validate_and_commit(make_block(peer, [tx]))
        assert committed.metadata.code_for(0) is ValidationCode.PHANTOM_READ_CONFLICT

    def test_in_block_phantom_detected(self):
        peer = build_peer()
        seed_state(peer, "apple", {"v": 1}, 0, 0)
        range_tx = self._range_tx(peer, 1, peer.ledger.state)
        inserter = endorsed_tx(peer, write_rwset(("middle", {"v": 9})), 2)
        committed = peer.validate_and_commit(make_block(peer, [inserter, range_tx]))
        assert committed.metadata.code_for(0) is ValidationCode.VALID
        assert committed.metadata.code_for(1) is ValidationCode.PHANTOM_READ_CONFLICT


class TestCommitBookkeeping:
    def test_commit_work_counters(self):
        peer = build_peer()
        version = seed_block(peer, {"K": {"v": 0}})["K"]
        tx = endorsed_tx(peer, write_rwset(("K", {"v": 1}), reads=(("K", version),)), 1)
        prepared = peer.prepare_block(make_block(peer, [tx]))
        assert prepared.work.tx_count == 1
        assert prepared.work.vscc_checks == 1
        assert prepared.work.mvcc_reads == 1
        assert prepared.work.writes_applied == 1
        assert prepared.work.distinct_keys_written == 1

    def test_prepare_does_not_mutate_state(self):
        peer = build_peer()
        tx = endorsed_tx(peer, write_rwset(("K", {"v": 1})), 1)
        peer.prepare_block(make_block(peer, [tx]))
        assert peer.ledger.state.get_value("K") is None
        assert peer.ledger.height == 0

    def test_events_published_on_apply(self):
        peer = build_peer()
        seen = []
        peer.events.subscribe(
            lambda committed, name: seen.append((name, committed.block.number))
        )
        tx = endorsed_tx(peer, write_rwset(("K", {})), 1)
        peer.validate_and_commit(make_block(peer, [tx]))
        assert seen == [(peer.name, 0)]
