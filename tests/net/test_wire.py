"""Property tests: every wire structure round-trips exactly.

``decode(encode(x)) == x`` per message type is load-bearing, not hygiene:
peers recompute block data hashes from *decoded* envelopes, so a codec
that loses one bit anywhere breaks the hash chain at the first committed
block.  Decoders must also fail typed (:class:`WireError`) on malformed
input, because servers answer a bad message with an error frame instead
of dying.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.serialization import from_bytes, to_bytes
from repro.common.types import (
    RangeQueryInfo,
    ReadItem,
    ReadWriteSet,
    ValidationCode,
    Version,
    WriteItem,
)
from repro.fabric.block import Block, BlockMetadata, CommittedBlock
from repro.fabric.events import statuses_from_block
from repro.fabric.identity import SignedPayload
from repro.fabric.policy import OutOf, Principal
from repro.fabric.transaction import (
    ChaincodeEvent,
    EndorsementFailure,
    Proposal,
    ProposalResponse,
    TransactionEnvelope,
)
from repro.net.profile import ChaincodeRef
from repro.net.transport import MirrorPeer
from repro.net.wire import (
    WireError,
    dec_block,
    dec_block_status,
    dec_committed_block,
    dec_endorsement_failure,
    dec_envelope,
    dec_metadata,
    dec_proposal,
    dec_proposal_response,
    dec_rwset,
    dec_version,
    enc_block,
    enc_block_status,
    enc_committed_block,
    enc_endorsement_failure,
    enc_envelope,
    enc_metadata,
    enc_proposal,
    enc_proposal_response,
    enc_rwset,
    enc_version,
    message_type,
)

from ..fabric.helpers import build_peer, endorsed_tx, write_rwset

# -- strategies ---------------------------------------------------------------

names = st.text(alphabet="OrgPeerclient0123456789._-", min_size=1, max_size=16)
keys = st.text(alphabet="abcdevice/0123456789-", min_size=1, max_size=20)
payload_bytes = st.binary(max_size=64)
versions = st.builds(Version, st.integers(0, 10**6), st.integers(0, 10**4))
finite_floats = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)

policy_nodes = st.recursive(
    st.builds(Principal, names),
    lambda children: st.lists(children, min_size=1, max_size=3).flatmap(
        lambda rules: st.integers(1, len(rules)).map(
            lambda threshold: OutOf(threshold, tuple(rules))
        )
    ),
    max_leaves=6,
)

read_items = st.builds(ReadItem, key=keys, version=st.none() | versions)
write_items = st.one_of(
    # Regular or CRDT write: non-delete, any value.
    st.builds(
        WriteItem,
        key=keys,
        value=payload_bytes,
        is_delete=st.just(False),
        is_crdt=st.booleans(),
    ),
    # Delete: empty value, never CRDT (WriteItem's own invariants).
    st.builds(
        WriteItem,
        key=keys,
        value=st.just(b""),
        is_delete=st.just(True),
        is_crdt=st.just(False),
    ),
)
range_queries = st.builds(
    RangeQueryInfo, start_key=keys, end_key=keys, results_hash=st.binary(min_size=32, max_size=32)
)
rwsets = st.builds(
    ReadWriteSet,
    reads=st.lists(read_items, max_size=4).map(tuple),
    writes=st.lists(write_items, max_size=4).map(tuple),
    range_queries=st.lists(range_queries, max_size=2).map(tuple),
)

signed_payloads = st.builds(
    SignedPayload,
    payload_hash=st.binary(min_size=32, max_size=32),
    signer=names,
    signature=st.binary(min_size=32, max_size=32),
)

json_values = st.none() | st.booleans() | st.integers(-100, 100) | st.text(max_size=12)
events = st.none() | st.builds(
    ChaincodeEvent, name=names, payload=st.dictionaries(keys, json_values, max_size=3)
)

proposals = st.builds(
    Proposal,
    tx_id=names,
    channel=names,
    chaincode=names,
    function=names,
    args=st.lists(st.text(max_size=30), max_size=3).map(tuple),
    creator=names,
    submit_time=finite_floats,
)

proposal_responses = st.builds(
    ProposalResponse,
    tx_id=names,
    endorser=names,
    rwset=rwsets,
    chaincode_result=payload_bytes,
    endorsement=signed_payloads,
    event=events,
)

envelopes = st.builds(
    TransactionEnvelope,
    proposal=proposals,
    rwset=rwsets,
    endorsements=st.lists(signed_payloads, min_size=1, max_size=3).map(tuple),
    chaincode_result=payload_bytes,
    client_signature=st.none() | signed_payloads,
    event=events,
)


@st.composite
def blocks(draw):
    transactions = tuple(draw(st.lists(envelopes, max_size=3)))
    return Block.build(
        number=draw(st.integers(0, 10**6)),
        previous_hash=draw(st.binary(min_size=32, max_size=32)),
        transactions=transactions,
        cut_reason=draw(st.sampled_from(["count", "bytes", "timeout", "flush"])),
        cut_time=draw(finite_floats),
    )


@st.composite
def committed_blocks(draw):
    block = draw(blocks())
    flags = [
        draw(st.sampled_from(list(ValidationCode))) for _ in block.transactions
    ]
    effective = None
    if draw(st.booleans()):
        effective = tuple(
            (index, write)
            for index, tx in enumerate(block.transactions)
            for write in tx.rwset.writes
        )
    return CommittedBlock(
        block=block,
        metadata=BlockMetadata(block_num=block.number, flags=flags),
        commit_time=draw(finite_floats),
        effective_writes=effective,
    )


# -- round trips --------------------------------------------------------------


@given(version=st.none() | versions)
@settings(max_examples=100, deadline=None)
def test_version_round_trip(version):
    assert dec_version(enc_version(version)) == version


def dec_policy(data):
    """A policy through the one codec that carries one: a chaincode
    definition in a cluster profile (transactions carry none)."""

    return ChaincodeRef.from_dict({"spec": "module:Class", "policy": data}).policy


@given(node=st.none() | policy_nodes)
@settings(max_examples=100, deadline=None)
def test_policy_round_trip(node):
    ref = ChaincodeRef("module:Class", node)
    assert ChaincodeRef.from_dict(ref.to_dict()) == ref


@given(rwset=rwsets)
@settings(max_examples=100, deadline=None)
def test_rwset_round_trip(rwset):
    assert dec_rwset(enc_rwset(rwset)) == rwset


@given(proposal=proposals)
@settings(max_examples=100, deadline=None)
def test_proposal_round_trip(proposal):
    assert dec_proposal(enc_proposal(proposal)) == proposal


@given(response=proposal_responses)
@settings(max_examples=100, deadline=None)
def test_proposal_response_round_trip(response):
    assert dec_proposal_response(enc_proposal_response(response)) == response


@given(
    failure=st.builds(
        EndorsementFailure,
        tx_id=names,
        endorser=names,
        reason=st.text(max_size=40),
        chaincode_error=st.none() | st.text(max_size=40),
    )
)
@settings(max_examples=100, deadline=None)
def test_endorsement_failure_round_trip(failure):
    assert dec_endorsement_failure(enc_endorsement_failure(failure)) == failure


@given(envelope=envelopes)
@settings(max_examples=50, deadline=None)
def test_envelope_round_trip(envelope):
    assert dec_envelope(enc_envelope(envelope)) == envelope


@given(block=blocks())
@settings(max_examples=25, deadline=None)
def test_block_round_trip_preserves_integrity(block):
    decoded = dec_block(enc_block(block))
    assert decoded == block
    # The far side recomputes the data hash from decoded envelopes: a
    # lossy codec would fail here even if equality somehow held.
    assert decoded.verify_integrity()


@given(metadata=st.builds(
    BlockMetadata,
    block_num=st.integers(0, 10**6),
    flags=st.lists(st.sampled_from(list(ValidationCode)), max_size=5),
))
@settings(max_examples=100, deadline=None)
def test_metadata_round_trip(metadata):
    decoded = dec_metadata(enc_metadata(metadata))
    assert decoded.block_num == metadata.block_num
    assert list(decoded.flags) == list(metadata.flags)


@given(committed=committed_blocks())
@settings(max_examples=25, deadline=None)
def test_committed_block_round_trip(committed):
    decoded = dec_committed_block(enc_committed_block(committed))
    assert decoded.block == committed.block
    assert list(decoded.metadata.flags) == list(committed.metadata.flags)
    assert decoded.commit_time == committed.commit_time
    assert decoded.writes_applied() == committed.writes_applied()


def test_vanilla_committed_block_round_trips_into_a_mirror():
    # A vanilla commit keeps no effective-writes list: the frame carries
    # ``null`` and the mirror derives the writes from flags + write-sets.
    peer = build_peer()
    mirror = MirrorPeer("mirror", "Org1")
    blocks = [
        (
            endorsed_tx(peer, write_rwset(("a", {"n": 1}), ("b", {"n": 1})), nonce=1),
            endorsed_tx(peer, write_rwset(("a", {"n": 2})), nonce=2),
        ),
        (
            endorsed_tx(
                peer,
                ReadWriteSet.build(writes=[WriteItem("b", b"", is_delete=True)]),
                nonce=3,
            ),
            endorsed_tx(peer, write_rwset(("a", {"n": 3}), reads=(("a", None),)), nonce=4),
            endorsed_tx(peer, write_rwset(("c", {"n": 1})), nonce=1),  # duplicate id
        ),
    ]
    for txs in blocks:
        block = Block.build(peer.ledger.height, peer.ledger.last_hash, txs)
        committed = peer.validate_and_commit(block)
        assert committed.effective_writes is None
        encoded = enc_committed_block(committed)
        assert encoded["effective_writes"] is None
        mirror.absorb(dec_committed_block(encoded))

    codes = [code for _, code in peer.ledger.block_at(1).statuses()]
    assert codes == [
        ValidationCode.VALID,
        ValidationCode.MVCC_READ_CONFLICT,
        ValidationCode.DUPLICATE_TXID,
    ]
    assert mirror.ledger.state.fingerprint() == peer.ledger.state.fingerprint()
    assert mirror.ledger.state.snapshot_versions() == peer.ledger.state.snapshot_versions()
    for key in ("a", "b", "c"):
        assert mirror.ledger.history_for_key(key) == peer.ledger.history_for_key(key)
    for txs in blocks:
        for tx in txs:
            assert mirror.ledger.transaction_status(tx.tx_id) == (
                peer.ledger.transaction_status(tx.tx_id)
            )


@given(committed=committed_blocks())
@settings(max_examples=25, deadline=None)
def test_block_status_says_what_the_full_block_says(committed):
    # What the light client records from a status frame is, field for field,
    # what a full mirror would have recorded from the block itself.
    encoded = enc_block_status(committed)
    header, statuses = dec_block_status(encoded)
    assert header == committed.block.header and header.hash() == committed.block.header.hash()
    assert statuses == statuses_from_block(committed)
    assert enc_block_status(dec_committed_block(enc_committed_block(committed))) == encoded
    assert "rwset" not in repr(encoded)  # codes and ids only: no read-write sets


# -- strictness ---------------------------------------------------------------

_COMMITTED = enc_committed_block(
    CommittedBlock(block=Block.build(0, b"\x00" * 32, ()), metadata=BlockMetadata(block_num=0))
)
_BLOCK = _COMMITTED["block"]
_STATUS = {"header": _BLOCK["header"], "commit_time": 0.0, "txs": []}
_PROPOSAL = enc_proposal(Proposal("t", "c", "cc", "f", (), "cl"))


@pytest.mark.parametrize(
    "decoder, bad",
    [
        (dec_proposal, {}),
        (dec_proposal, {"tx_id": "t"}),
        (dec_rwset, {"reads": []}),
        (dec_rwset, "not an object"),
        (dec_envelope, {"proposal": {}}),
        (dec_policy, {"neither": 1}),
        (dec_policy, {"out_of": {"threshold": "x", "rules": []}}),
        (dec_block, {"header": {}}),
        (dec_committed_block, {"block": {}}),
        (dec_metadata, {"block_num": 1, "flags": ["NOT_A_CODE"]}),
        # What a deliver reader or an endorse handler may be handed: each of
        # these used to escape as AttributeError / TypeError and kill the task.
        (dec_committed_block, None),
        (dec_committed_block, {**_COMMITTED, "block": {**_BLOCK, "transactions": 5}}),
        (dec_committed_block, {**_COMMITTED, "effective_writes": 3}),
        (dec_committed_block, {**_COMMITTED, "block": {**_BLOCK, "cut_time": None}}),
        (dec_committed_block, {**_COMMITTED, "commit_time": None}),
        (dec_metadata, {"block_num": 1, "flags": 7}),
        (dec_envelope, None),
        (dec_proposal, {**_PROPOSAL, "submit_time": "soon"}),
        (dec_block_status, None),
        (dec_block_status, {**_STATUS, "txs": 1}),
        (dec_block_status, {**_STATUS, "commit_time": None}),
        (dec_block_status, {**_STATUS, "header": {**_BLOCK["header"], "number": "0"}}),
        (dec_block_status, {**_STATUS, "txs": [["tx", "VALID"]]}),
        (dec_block_status, {**_STATUS, "txs": [["tx", "VALID", True]]}),
    ],
)
def test_malformed_input_raises_wire_error(decoder, bad):
    with pytest.raises(WireError):
        decoder(bad)


def test_proposal_args_must_be_strings():
    proposal = enc_proposal(
        Proposal(
            tx_id="t", channel="c", chaincode="cc", function="f",
            args=("a",), creator="cl",
        )
    )
    proposal["args"] = [1, 2]
    with pytest.raises(WireError):
        dec_proposal(proposal)


# A name that is not a string used to pass the decoder and then crash every
# peer that committed its block (``TypeError: unhashable type: 'list'`` in the
# tx index, the signature check or the merge).  Each path below names one
# field of a fully populated envelope.
_SIGNED = SignedPayload(b"\x01" * 32, "Org1.peer0", b"\x02" * 32)
_ENVELOPE = enc_envelope(
    TransactionEnvelope(
        proposal=Proposal("t", "c", "cc", "f", ("a",), "Org1.client0"),
        rwset=ReadWriteSet(
            reads=(ReadItem("k", Version(1, 0)),),
            writes=(WriteItem("k", b"v", is_crdt=True),),
            range_queries=(RangeQueryInfo("a", "b", b"\x03" * 32),),
        ),
        endorsements=(_SIGNED,),
        client_signature=_SIGNED,
        event=ChaincodeEvent("evt", {"n": 1}),
    )
)
_NAME_PATHS = [
    ("proposal", "tx_id"),
    ("proposal", "channel"),
    ("proposal", "chaincode"),
    ("proposal", "function"),
    ("proposal", "creator"),
    ("endorsements", 0, "signer"),
    ("client_signature", "signer"),
    ("rwset", "reads", 0, "key"),
    ("rwset", "writes", 0, "key"),
    ("rwset", "range_queries", 0, "start_key"),
    ("rwset", "range_queries", 0, "end_key"),
    ("event", "name"),
]


def _with(data, path, value):
    """A deep copy of the JSON ``data`` with the field at ``path`` replaced."""

    copy = from_bytes(to_bytes(data))
    target = copy
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return copy


def test_the_unmutated_envelope_decodes():
    assert enc_envelope(dec_envelope(_ENVELOPE)) == _ENVELOPE


@pytest.mark.parametrize("path", _NAME_PATHS, ids=lambda path: ".".join(map(str, path)))
@pytest.mark.parametrize("value", [["not", "a", "string"], 7, None])
def test_a_name_that_is_not_a_string_raises_wire_error(path, value):
    bad = _with(_ENVELOPE, path, value)
    with pytest.raises(WireError, match=str(path[-1])):
        dec_envelope(bad)
    block = enc_block(Block.build(0, b"\x00" * 32, ()))
    with pytest.raises(WireError):
        dec_block({**block, "transactions": [_ENVELOPE, bad]})


@pytest.mark.parametrize(
    "write",
    [
        {"key": "k", "value": "dg==", "is_delete": True, "is_crdt": False},  # delete with a value
        {"key": "k", "value": "", "is_delete": True, "is_crdt": True},  # a CRDT delete
    ],
    ids=["delete-with-value", "crdt-delete"],
)
def test_a_write_that_breaks_write_item_invariants_raises_wire_error(write):
    # ``WriteItem.__post_init__`` raises ValueError; the endorse and
    # broadcast handlers catch only WireError.
    with pytest.raises(WireError):
        dec_rwset({"reads": [], "writes": [write], "range_queries": []})
    with pytest.raises(WireError):
        dec_committed_block({**_COMMITTED, "effective_writes": [{"tx_index": 0, **write}]})


@pytest.mark.parametrize(
    "node",
    [
        {"out_of": {"threshold": 1, "rules": []}},  # no rules
        {"out_of": {"threshold": 0, "rules": [{"principal": "Org1"}]}},
        {"out_of": {"threshold": 2, "rules": [{"principal": "Org1"}]}},
        {"out_of": {"threshold": True, "rules": [{"principal": "Org1"}]}},
        {"out_of": {"threshold": 1, "rules": [{"out_of": {"threshold": 1, "rules": []}}]}},
    ],
    ids=["no-rules", "threshold-0", "threshold-above-rules", "bool-threshold", "nested-no-rules"],
)
def test_an_invalid_policy_raises_wire_error(node):
    # ``OutOf`` raises PolicyError; a profile's decoder turns it into WireError.
    with pytest.raises(WireError):
        dec_policy(node)
    # A transaction carries no policy: one a client still writes into its
    # proposal, valid or not, is an unknown key the decoder never reads.
    assert enc_envelope(dec_envelope(_with(_ENVELOPE, ("proposal", "policy"), node))) == (
        _ENVELOPE
    )


def test_message_type_rejects_unknown_tags():
    assert message_type({"type": "ping"}) == "ping"
    with pytest.raises(WireError):
        message_type({"type": "launch_missiles"})
    with pytest.raises(WireError):
        message_type({})
