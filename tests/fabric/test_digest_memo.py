"""What the digest memo on the immutable value objects promises.

``ReadWriteSet._digest`` and ``TransactionEnvelope._summary`` only remember
what the object's own fields already determine.  These tests recompute every
memoised figure from scratch (the reference is written here, not imported),
check that copies never inherit a memo that is not theirs, that nothing
memoised reaches a frame, that a swapped transaction is still caught — and
pin the *count* of canonical encodings per transaction, which is the whole
point and, unlike a timing, repeats exactly.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import LedgerError
from repro.common.hashing import merkle_root
from repro.common.serialization import to_bytes
from repro.common.types import (
    KeyModification,
    RangeQueryInfo,
    ReadItem,
    ReadWriteSet,
    ValidationCode,
    Version,
    WriteItem,
)
from repro.core.network import vanilla_network
from repro.fabric import transaction
from repro.fabric.block import GENESIS_PREVIOUS_HASH, Block, BlockMetadata, CommittedBlock
from repro.fabric.identity import SignedPayload
from repro.fabric.ledger import Ledger
from repro.fabric.transaction import (
    ChaincodeEvent,
    Proposal,
    TransactionEnvelope,
    rwset_hash,
    rwset_to_dict,
)
from repro.gateway import Gateway
from repro.net.wire import dec_block, dec_envelope, dec_rwset, enc_block, enc_envelope, enc_rwset
from repro.workload.iot import IoTChaincode, encode_call, reading_payload

from ..conftest import small_config
from ..net.test_wire import envelopes, rwsets, write_items
from .helpers import build_peer, endorsed_tx, write_rwset

# -- the reference: the canonical encoding, written out again --------------------


def reference_rwset_bytes(rwset: ReadWriteSet) -> bytes:
    return json.dumps(
        {
            "reads": [
                {
                    "key": r.key,
                    "version": f"{r.version.block_num}:{r.version.tx_num}" if r.version else None,
                }
                for r in rwset.reads
            ],
            "writes": [
                {
                    "key": w.key,
                    "value": w.value.hex(),
                    "is_delete": w.is_delete,
                    "is_crdt": w.is_crdt,
                }
                for w in rwset.writes
            ],
            "range_queries": [
                {
                    "start_key": q.start_key,
                    "end_key": q.end_key,
                    "results_hash": q.results_hash.hex(),
                }
                for q in rwset.range_queries
            ],
        },
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
    ).encode("utf-8")


def reference_rwset_hash(rwset: ReadWriteSet) -> bytes:
    return hashlib.sha256(reference_rwset_bytes(rwset)).digest()


def reference_payload(envelope: TransactionEnvelope) -> bytes:
    return envelope.proposal.header_bytes() + reference_rwset_bytes(envelope.rwset)


def assert_figures_match_reference(envelope: TransactionEnvelope) -> None:
    payload = reference_payload(envelope)
    assert envelope.payload_bytes() == payload
    assert envelope.payload_digest() == hashlib.sha256(payload).digest()
    assert envelope.byte_size() == len(payload) + 96 * len(envelope.endorsements)
    assert rwset_hash(envelope.rwset) == reference_rwset_hash(envelope.rwset)


def test_the_reference_agrees_with_the_canonical_codec():
    rwset = fixed_envelope().rwset
    assert reference_rwset_bytes(rwset) == to_bytes(rwset_to_dict(rwset))


# -- memoised == recomputed, before and after, in either fill order --------------------


@given(rwset=rwsets)
@settings(max_examples=100, deadline=None)
def test_rwset_hash_equals_a_recomputation_before_and_after_the_memo_is_filled(rwset):
    assert rwset._digest is None
    expected = reference_rwset_hash(rwset)
    assert rwset_hash(rwset) == expected  # fills
    assert rwset._digest == expected
    assert rwset_hash(rwset) == expected  # reads


@given(envelope=envelopes, digest_first=st.booleans())
@settings(max_examples=100, deadline=None)
def test_envelope_figures_equal_a_recomputation_in_either_fill_order(envelope, digest_first):
    assert envelope._summary is None and envelope.rwset._digest is None
    signed = (envelope.rwset, envelope.chaincode_result, envelope.event)  # what VSCC hashes
    if digest_first:  # the read-write-set memo filled first, the summary after …
        endorsed = transaction.endorsed_payload_bytes(*signed)
        assert envelope._summary is None
        envelope.payload_digest()
    else:  # … or the summary first (integrity check, size cut), filling both
        envelope.byte_size()
        endorsed = transaction.endorsed_payload_bytes(*signed)
    assert endorsed.startswith(reference_rwset_hash(envelope.rwset))
    assert envelope._summary is not None and envelope.rwset._digest is not None
    assert_figures_match_reference(envelope)


@given(envelope=envelopes)
@settings(max_examples=50, deadline=None)
def test_a_digest_filled_by_the_endorser_is_kept_not_recomputed(envelope):
    """In-process the endorser's ``rwset_hash`` comes first; the summary that
    follows must leave it alone and still agree with it."""

    first = rwset_hash(envelope.rwset)
    envelope.byte_size()
    assert envelope.rwset._digest is first
    assert_figures_match_reference(envelope)


@given(transactions=st.lists(envelopes, max_size=5).map(tuple))
@settings(max_examples=50, deadline=None)
def test_data_hash_is_the_merkle_root_over_the_payload_bytes(transactions):
    expected = merkle_root(reference_payload(tx) for tx in transactions)
    assert Block.data_hash_for(transactions) == expected  # fills
    assert Block.data_hash_for(transactions) == expected  # reads
    assert Block.build(0, GENESIS_PREVIOUS_HASH, transactions).verify_integrity()


# -- the memo is invisible: ==, hash(), repr() ------------------------------------------


@given(envelope=envelopes)
@settings(max_examples=50, deadline=None)
def test_eq_hash_and_repr_ignore_the_memo(envelope):
    twin = dec_envelope(enc_envelope(envelope))
    before = repr(envelope), repr(envelope.rwset), hash(envelope.rwset)
    envelope.byte_size()
    assert twin._summary is None and twin.rwset._digest is None
    assert envelope == twin and envelope.rwset == twin.rwset
    assert hash(envelope.rwset) == hash(twin.rwset) == before[2]
    assert (repr(envelope), repr(envelope.rwset)) == before[:2]
    assert "_summary" not in repr(envelope) and "_digest" not in repr(envelope)


# -- copies digest their own fields ------------------------------------------------------


@given(envelope=envelopes, extra=write_items)
@settings(max_examples=100, deadline=None)
def test_edited_copies_start_with_empty_memos_and_digest_their_own_fields(envelope, extra):
    envelope.byte_size()
    rwset_hash(envelope.rwset)
    edited_rwset = dataclasses.replace(envelope.rwset, writes=envelope.rwset.writes + (extra,))
    assert edited_rwset._digest is None
    assert rwset_hash(edited_rwset) == reference_rwset_hash(edited_rwset)
    assert rwset_hash(edited_rwset) != rwset_hash(envelope.rwset)

    for edited in (
        envelope.with_rwset(edited_rwset),
        dataclasses.replace(envelope, rwset=edited_rwset),
    ):
        assert edited._summary is None
        assert_figures_match_reference(edited)
        assert edited.payload_digest() != envelope.payload_digest()

    renamed = dataclasses.replace(
        envelope, proposal=dataclasses.replace(envelope.proposal, tx_id="another-tx")
    )
    assert renamed._summary is None
    assert renamed.rwset is envelope.rwset  # the shared rwset keeps its (still right) digest
    assert_figures_match_reference(renamed)
    assert renamed.payload_digest() != envelope.payload_digest()


def test_the_memo_cannot_be_passed_to_the_constructor_or_to_replace():
    envelope = fixed_envelope()
    with pytest.raises(TypeError):
        ReadWriteSet((), (), (), b"\x00" * 32)
    with pytest.raises(TypeError):
        TransactionEnvelope(envelope.proposal, envelope.rwset, (), _summary=(b"", 0))
    with pytest.raises(ValueError):
        dataclasses.replace(envelope.rwset, _digest=b"\x00" * 32)
    with pytest.raises(ValueError):
        dataclasses.replace(envelope, _summary=(b"\x00" * 32, 1))


@given(envelope=envelopes)
@settings(max_examples=100, deadline=None)
def test_wire_round_trips_yield_empty_memos_and_equal_digests(envelope):
    envelope.byte_size()
    decoded = dec_envelope(enc_envelope(envelope))
    assert decoded._summary is None and decoded.rwset._digest is None
    assert decoded == envelope
    assert_figures_match_reference(decoded)
    assert decoded.payload_digest() == envelope.payload_digest()
    bare = dec_rwset(enc_rwset(envelope.rwset))
    assert bare._digest is None and rwset_hash(bare) == rwset_hash(envelope.rwset)


@given(envelope=envelopes, fill=st.booleans())
@settings(max_examples=50, deadline=None)
def test_copy_and_pickle_round_trips_compare_and_digest_equal(envelope, fill):
    if fill:
        envelope.byte_size()
    for clone in (
        copy.copy(envelope),
        copy.deepcopy(envelope),
        pickle.loads(pickle.dumps(envelope)),
    ):
        assert clone == envelope
        assert_figures_match_reference(clone)
        assert clone.payload_digest() == envelope.payload_digest()
        assert rwset_hash(clone.rwset) == rwset_hash(envelope.rwset)


# -- nothing memoised reaches a frame -------------------------------------------------------


def fixed_envelope() -> TransactionEnvelope:
    proposal = Proposal.create("ch", "iot", "record", ("a", "b"), "Org1.client0", nonce=7)
    rwset = ReadWriteSet(
        reads=(ReadItem("dev/1", Version(3, 1)), ReadItem("dev/2", None)),
        writes=(
            WriteItem("dev/1", b'{"t":"21"}', is_crdt=True),
            WriteItem("dev/3", b"", is_delete=True),
        ),
        range_queries=(RangeQueryInfo("dev/", "dev0", b"\x07" * 32),),
    )
    signed = SignedPayload(payload_hash=b"\x01" * 32, signer="Org1.peer0", signature=b"\x02" * 32)
    return TransactionEnvelope(
        proposal=proposal,
        rwset=rwset,
        endorsements=(signed,),
        chaincode_result=b"null",
        client_signature=signed,
        event=ChaincodeEvent("recorded", {"key": "dev/1"}),
    )


def test_enc_envelope_carries_no_memo_and_is_byte_identical_to_the_parent_commit():
    """The digests were printed by the commit before the memo existed, for
    this same envelope.  The frame's was re-pinned when proposals stopped
    carrying a policy: it is that commit's frame without ``proposal.policy``.
    The other two never covered the policy, so they did not move."""

    envelope = fixed_envelope()
    cold = to_bytes(enc_envelope(envelope))
    envelope.byte_size()
    rwset_hash(envelope.rwset)
    warm = enc_envelope(envelope)
    assert to_bytes(warm) == cold
    assert sorted(warm) == [
        "chaincode_result", "client_signature", "endorsements", "event", "proposal", "rwset",
    ]
    assert sorted(warm["rwset"]) == ["range_queries", "reads", "writes"]
    assert b"_summary" not in cold and b"_digest" not in cold
    assert hashlib.sha256(cold).hexdigest() == (
        "485eed156bec9f6b1a1d39e841f9c96e86582403e4392df148534c0aca91d8a3"
    )
    assert envelope.byte_size() == 582
    assert envelope.payload_digest().hex() == (
        "d04bb7d9438819ec9854e512299d488e3afb7ff3cae836fdaeeef1af9753941e"
    )
    assert envelope.tx_id == "8bedf33a22a890f6"


def test_decoders_do_not_accept_a_memo():
    envelope = fixed_envelope()
    forged = enc_envelope(envelope)
    forged["_summary"] = ["00" * 32, 1]
    forged["rwset"]["_digest"] = "00" * 32
    decoded = dec_envelope(forged)
    assert decoded._summary is None and decoded.rwset._digest is None
    assert_figures_match_reference(decoded)


# -- no check is weakened ----------------------------------------------------------------------


def test_a_block_with_a_swapped_transaction_fails_integrity_and_the_ledger_refuses_it():
    peer = build_peer()
    txs = [endorsed_tx(peer, write_rwset((f"k{i}", {"v": i})), i) for i in range(3)]
    block = Block.build(0, GENESIS_PREVIOUS_HASH, tuple(txs))
    assert block.verify_integrity(GENESIS_PREVIOUS_HASH)  # every memo is now filled

    edited = txs[1].with_rwset(write_rwset(("k1", {"v": "forged"})))
    for forged_tx in (edited, dataclasses.replace(txs[1], rwset=edited.rwset)):
        forged = dataclasses.replace(block, transactions=(txs[0], forged_tx, txs[2]))
        assert not forged.verify_integrity()
        metadata = BlockMetadata(0, [ValidationCode.VALID] * 3)
        with pytest.raises(LedgerError):
            Ledger().append_block(CommittedBlock(forged, metadata))
    Ledger().append_block(CommittedBlock(block, BlockMetadata(0, [ValidationCode.VALID] * 3)))


def test_vscc_still_rejects_an_envelope_whose_rwset_was_swapped_after_endorsement():
    peer = build_peer()
    honest = endorsed_tx(peer, write_rwset(("k", {"v": 1})), 1)
    policy = peer.chaincodes.policy_for("cc")
    assert peer._vscc(honest, policy)
    swapped = honest.with_rwset(write_rwset(("k", {"v": "forged"})))
    assert not peer._vscc(swapped, policy)
    block = Block.build(0, GENESIS_PREVIOUS_HASH, (honest, swapped))
    committed = peer.validate_and_commit(block)
    assert committed.metadata.flags == [
        ValidationCode.VALID,
        ValidationCode.DUPLICATE_TXID,  # same tx id: caught before VSCC, as ever
    ]


# -- slotted value types -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "value",
    [
        Version(1, 2),
        ReadItem("k", None),
        WriteItem("k", b"v"),
        RangeQueryInfo("a", "b", b"\x00" * 32),
        KeyModification("tx", b"v", False, Version(0, 0)),
        ReadWriteSet(),
        fixed_envelope(),
    ],
    ids=lambda value: type(value).__name__,
)
def test_slotted_value_types_have_no_dict_and_reject_new_attributes(value):
    assert not hasattr(value, "__dict__")
    with pytest.raises((AttributeError, TypeError)):
        object.__setattr__(value, "anything_else", 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, dataclasses.fields(value)[0].name, "other")
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.copy(value) == value


def test_version_still_orders_compares_hashes_and_parses():
    assert Version(1, 9) < Version(2, 0) < Version(2, 1)
    assert sorted([Version(2, 1), Version(1, 9), Version(2, 0)])[0] == Version(1, 9)
    assert max(Version(0, 5), Version(0, 7)) == Version(0, 7)
    assert Version(3, 4) == Version.parse("3:4") and str(Version(3, 4)) == "3:4"
    assert len({Version(1, 1), Version(1, 1), Version(1, 2)}) == 2
    with pytest.raises(ValueError):
        Version(-1, 0)


# -- the count, not the time -------------------------------------------------------------------


@pytest.fixture
def encodings(monkeypatch):
    """Count calls of ``rwset_to_dict`` — one per canonical encoding."""

    calls = []
    original = transaction.rwset_to_dict

    def counting(rwset):
        calls.append(rwset)
        return original(rwset)

    monkeypatch.setattr(transaction, "rwset_to_dict", counting)
    return calls


def test_an_in_process_network_encodes_a_transaction_once_per_endorser_plus_once(encodings):
    """Client, orderer and six peers share one envelope object: each
    endorser digests the read-write set it produced, the envelope is
    summarised once, and nobody encodes again (17 per transaction before)."""

    network = vanilla_network(small_config(max_message_count=10))
    network.deploy(IoTChaincode())
    contract = Gateway.connect(network).get_contract("iot")
    keys = [f"d{i}" for i in range(10)]
    contract.submit("populate", json.dumps({"keys": keys}))
    del encodings[:]

    height = network.ledger_of().height
    submitted = [
        contract.submit_async(
            "record", encode_call([key], [key], reading_payload(key, 20 + i, i))
        )
        for i, key in enumerate(keys)
    ]
    assert [tx.commit_status().code for tx in submitted] == [ValidationCode.VALID] * 10
    (committed,) = network.ledger_of().blocks()[height:]
    allowed = sum(len(tx.endorsements) + 1 for tx in committed.block.transactions)
    assert len(committed.block) == 10 and allowed >= 20
    assert 10 <= len(encodings) <= allowed
    assert len(network.peers) == 6
    assert all(peer.ledger.height == height + 1 for peer in network.peers)
    assert all(peer.ledger.verify_chain() for peer in network.peers)


def test_a_peer_encodes_each_transaction_of_a_wire_decoded_block_exactly_once(encodings):
    """A socket node digests its own decoded copy.  VSCC runs before the
    integrity check, so one encoding per transaction holds only because
    ``_vscc`` asks the envelope, whose summary fills the digest (2 before)."""

    author = build_peer(name="author")
    txs = [endorsed_tx(author, write_rwset((f"k{i}", {"v": i})), i) for i in range(8)]
    frame = enc_block(Block.build(0, GENESIS_PREVIOUS_HASH, tuple(txs)))

    peer = build_peer(name="peer1", membership=author.membership, chaincodes=author.chaincodes)
    block = dec_block(frame)
    assert all(tx._summary is None and tx.rwset._digest is None for tx in block.transactions)
    del encodings[:]
    committed = peer.validate_and_commit(block)
    assert committed.metadata.flags == [ValidationCode.VALID] * 8
    assert len(encodings) == 8
    assert sorted(map(id, encodings)) == sorted(id(tx.rwset) for tx in block.transactions)
    assert peer.ledger.verify_chain()  # memo hits
    assert len(encodings) == 8
