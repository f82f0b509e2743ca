"""Tests for composite keys and the GetHistoryForKey shim API."""

import pytest

from repro.common.errors import ChaincodeError
from repro.common.serialization import to_bytes
from repro.common.types import Version
from repro.fabric.chaincode import (
    ShimStub,
    create_composite_key,
    split_composite_key,
)
from repro.fabric.store import MemoryStore

from .helpers import build_peer, endorsed_tx, seed_block, write_rwset


class TestCompositeKeys:
    def test_roundtrip(self):
        key = create_composite_key("asset", ["color", "blue", "42"])
        assert split_composite_key(key) == ("asset", ["color", "blue", "42"])

    def test_no_attributes(self):
        key = create_composite_key("marker", [])
        assert split_composite_key(key) == ("marker", [])

    def test_empty_object_type_rejected(self):
        with pytest.raises(ChaincodeError):
            create_composite_key("", ["a"])

    def test_separator_in_component_rejected(self):
        with pytest.raises(ChaincodeError):
            create_composite_key("a\x00b", [])
        with pytest.raises(ChaincodeError):
            create_composite_key("t", ["bad\x00attr"])

    def test_split_non_composite_rejected(self):
        with pytest.raises(ChaincodeError):
            split_composite_key("ordinary-key")

    def test_partial_prefix_scan(self):
        db = MemoryStore()
        for owner, asset in [("alice", "a1"), ("alice", "a2"), ("bob", "b1")]:
            key = create_composite_key("owner~asset", [owner, asset])
            db.apply_write(key, to_bytes({"asset": asset}), Version(0, 0))
        stub = ShimStub(db, "tx")
        alice_assets = stub.get_state_by_partial_composite_key("owner~asset", ["alice"])
        assert [value["asset"] for _, value in alice_assets] == ["a1", "a2"]
        everything = stub.get_state_by_partial_composite_key("owner~asset")
        assert len(everything) == 3

    def test_prefix_scan_is_phantom_protected(self):
        db = MemoryStore()
        key = create_composite_key("t", ["x"])
        db.apply_write(key, to_bytes({}), Version(0, 0))
        stub = ShimStub(db, "tx")
        stub.get_state_by_partial_composite_key("t")
        assert len(stub.build_rwset().range_queries) == 1


class TestHistoryAPI:
    def test_history_through_endorsement(self):
        peer = build_peer()
        seed_block(peer, {"K": {"v": 0}})
        version = peer.ledger.state.get_version("K")
        update = endorsed_tx(peer, write_rwset(("K", {"v": 1}), reads=(("K", version),)), 1)
        from repro.fabric.block import Block

        peer.validate_and_commit(
            Block.build(peer.ledger.height, peer.ledger.last_hash, (update,))
        )

        class HistoryCC:
            name = "historycc"

            def invoke(self, stub, function, args):
                return stub.get_history_for_key(args[0])

        peer.chaincodes.deploy(HistoryCC())
        from repro.fabric.policy import EndorsementPolicy, or_policy
        from repro.fabric.transaction import Proposal

        proposal = Proposal.create(
            "ch", "historycc", "q", ("K",), "Org1.c",
            EndorsementPolicy(or_policy("Org1")), nonce=77,
        )
        response = peer.endorse(proposal)
        from repro.common.serialization import from_bytes

        history = from_bytes(response.chaincode_result)
        assert [entry["value"] for entry in history] == [{"v": 0}, {"v": 1}]
        assert history[0]["version"] == "0:0"

    def test_history_unavailable_without_provider(self):
        stub = ShimStub(MemoryStore(), "tx")
        with pytest.raises(ChaincodeError):
            stub.get_history_for_key("K")

    def test_history_not_recorded_in_read_set(self):
        peer = build_peer()
        seed_block(peer, {"K": {"v": 0}})
        stub = ShimStub(
            peer.ledger.state, "tx", history=peer.ledger.history_for_key
        )
        stub.get_history_for_key("K")
        rwset = stub.build_rwset()
        assert rwset.reads == () and rwset.range_queries == ()
