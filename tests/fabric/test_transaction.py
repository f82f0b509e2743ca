"""Tests for proposals, read-write-set hashing, and envelopes."""

from repro.common.types import ReadItem, ReadWriteSet, TxType, Version, WriteItem
from repro.fabric.transaction import Proposal, TransactionEnvelope, rwset_hash, rwset_to_dict


def make_proposal(nonce=0, args=("x",)):
    return Proposal.create(
        channel="ch",
        chaincode="cc",
        function="fn",
        args=args,
        creator="Org1.client0",
        nonce=nonce,
    )


class TestProposal:
    def test_tx_id_deterministic(self):
        assert make_proposal(nonce=1).tx_id == make_proposal(nonce=1).tx_id

    def test_tx_id_unique_per_nonce(self):
        assert make_proposal(nonce=1).tx_id != make_proposal(nonce=2).tx_id

    def test_tx_id_depends_on_payload(self):
        assert make_proposal(args=("a",)).tx_id != make_proposal(args=("b",)).tx_id


class TestRwsetHash:
    def test_stable(self):
        rwset = ReadWriteSet.build(
            reads=[ReadItem("k", Version(0, 1))],
            writes=[WriteItem("k", b"v")],
        )
        assert rwset_hash(rwset) == rwset_hash(rwset)

    def test_sensitive_to_versions(self):
        base = ReadWriteSet.build(reads=[ReadItem("k", Version(0, 1))])
        other = ReadWriteSet.build(reads=[ReadItem("k", Version(0, 2))])
        assert rwset_hash(base) != rwset_hash(other)

    def test_sensitive_to_crdt_flag(self):
        plain = ReadWriteSet.build(writes=[WriteItem("k", b"v")])
        flagged = ReadWriteSet.build(writes=[WriteItem("k", b"v", is_crdt=True)])
        assert rwset_hash(plain) != rwset_hash(flagged)

    def test_dict_form_includes_nil_version(self):
        rwset = ReadWriteSet.build(reads=[ReadItem("missing", None)])
        as_dict = rwset_to_dict(rwset)
        assert as_dict["reads"][0]["version"] is None


class TestEnvelope:
    def _envelope(self, rwset):
        return TransactionEnvelope(
            proposal=make_proposal(),
            rwset=rwset,
            endorsements=(),
        )

    def test_tx_type_standard(self):
        envelope = self._envelope(ReadWriteSet.build(writes=[WriteItem("k", b"v")]))
        assert envelope.tx_type is TxType.STANDARD

    def test_tx_type_crdt(self):
        envelope = self._envelope(
            ReadWriteSet.build(writes=[WriteItem("k", b"v", is_crdt=True)])
        )
        assert envelope.tx_type is TxType.CRDT

    def test_with_rwset_replaces_only_rwset(self):
        original = self._envelope(ReadWriteSet.build(writes=[WriteItem("k", b"old")]))
        replacement = ReadWriteSet.build(writes=[WriteItem("k", b"new")])
        updated = original.with_rwset(replacement)
        assert updated.rwset is replacement
        assert updated.proposal is original.proposal
        assert updated.tx_id == original.tx_id

    def test_byte_size_grows_with_payload(self):
        small = self._envelope(ReadWriteSet.build(writes=[WriteItem("k", b"v")]))
        big = self._envelope(ReadWriteSet.build(writes=[WriteItem("k", b"v" * 1000)]))
        assert big.byte_size() > small.byte_size()
