"""Helpers for building endorsed transactions against hand-crafted peers."""

from __future__ import annotations

from typing import Optional

from repro.common.hashing import sha256
from repro.common.serialization import to_bytes
from repro.common.types import ReadItem, ReadWriteSet, Version, WriteItem
from repro.fabric.chaincode import ChaincodeRegistry
from repro.fabric.identity import MembershipRegistry
from repro.fabric.peer import Peer
from repro.fabric.policy import PolicyNode, or_policy
from repro.fabric.transaction import (
    Proposal,
    TransactionEnvelope,
    endorsed_payload_bytes,
)


class HandCraftedChaincode:
    """The chaincode ``cc`` that :func:`endorsed_tx` transactions name.

    Their read-write sets are written by hand, so it is never invoked; it is
    deployed only for the policy that VSCC evaluates.
    """

    name = "cc"

    def invoke(self, stub, function, args):
        return None


def build_peer(
    org: str = "Org1",
    name: str = "peer0",
    membership: Optional[MembershipRegistry] = None,
    chaincodes: Optional[ChaincodeRegistry] = None,
    peer_cls: type = Peer,
    policy: Optional[PolicyNode] = None,
    **peer_kwargs,
) -> Peer:
    """A peer of ``org``.  Without a shared ``chaincodes`` registry it gets its
    own, with ``cc`` deployed under ``policy`` (default ``OR(org)``)."""

    membership = membership if membership is not None else MembershipRegistry()
    if chaincodes is None:
        chaincodes = ChaincodeRegistry()
        chaincodes.deploy(
            HandCraftedChaincode(), policy if policy is not None else or_policy(org)
        )
    identity = membership.enroll(org, name)
    return peer_cls(identity, membership, chaincodes, **peer_kwargs)


def endorsed_tx(
    peer: Peer,
    rwset: ReadWriteSet,
    nonce: int,
    endorser_orgs: Optional[list[str]] = None,
    chaincode: str = "cc",
) -> TransactionEnvelope:
    """A transaction with a hand-crafted rwset, properly signed.

    ``endorser_orgs`` lets tests endorse from several orgs (identities are
    enrolled on demand as ``<org>.endorser``).
    """

    proposal = Proposal.create(
        channel="ch",
        chaincode=chaincode,
        function="fn",
        args=(str(nonce),),
        creator=f"{peer.org_name}.client0",
        nonce=nonce,
    )
    result_bytes = to_bytes(None)
    response_hash = sha256(endorsed_payload_bytes(rwset, result_bytes, None))
    orgs = endorser_orgs if endorser_orgs is not None else [peer.org_name]
    endorsements = []
    for org in orgs:
        endorser = peer.membership.enroll(org, "endorser")
        endorsements.append(peer.membership.sign_as(endorser.qualified_name, response_hash))
    return TransactionEnvelope(
        proposal=proposal,
        rwset=rwset,
        endorsements=tuple(endorsements),
        chaincode_result=result_bytes,
    )


def write_rwset(
    *writes: tuple[str, dict],
    reads: tuple[tuple[str, Optional[Version]], ...] = (),
    crdt: bool = False,
) -> ReadWriteSet:
    return ReadWriteSet.build(
        reads=[ReadItem(key, version) for key, version in reads],
        writes=[WriteItem(key, to_bytes(value), is_crdt=crdt) for key, value in writes],
    )


def seed_state(peer: Peer, key: str, value: dict, block: int = 0, tx: int = 0) -> Version:
    """Directly mutate committed state (bypassing the ledger).

    Only for tests that deliberately simulate out-of-band changes (e.g.
    phantom inserts).  For normal seeding use :func:`seed_block`, which
    commits a real block so version numbering stays consistent.
    """

    version = Version(block, tx)
    peer.ledger.state.apply_write(key, to_bytes(value), version)
    return version


def seed_block(peer: Peer, values: dict, nonce_base: int = 9000) -> dict:
    """Populate keys through one real committed block (one tx per key).

    Returns ``{key: Version}`` as committed, mirroring the paper's
    pre-population step (§7.2).
    """

    from repro.fabric.block import Block

    txs = [
        endorsed_tx(peer, write_rwset((key, value)), nonce_base + index)
        for index, (key, value) in enumerate(values.items())
    ]
    block = Block.build(peer.ledger.height, peer.ledger.last_hash, tuple(txs))
    committed = peer.validate_and_commit(block)
    assert committed.metadata.invalid_count == 0, "seed block must commit cleanly"
    return {key: peer.ledger.state.get_version(key) for key in values}
