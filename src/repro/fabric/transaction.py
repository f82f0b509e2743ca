"""Transaction structures: proposals, endorsements, and envelopes.

The lifecycle mirrors Figure 1 of the paper:

1. a client builds a :class:`Proposal` naming chaincode, function, and args
   (the endorsement policy is the deployed chaincode's, never the client's);
2. endorsing peers simulate it and return :class:`ProposalResponse` objects
   containing the read-write set and a signature over its hash;
3. the client assembles a :class:`TransactionEnvelope` from the proposal
   payload plus matching endorsements and submits it to the ordering service.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..common.hashing import sha256, short_hash
from ..common.serialization import to_bytes
from ..common.types import Json, ReadWriteSet, TxType
from .identity import SignedPayload


@dataclass(frozen=True)
class ChaincodeEvent:
    """One chaincode event set during endorsement (Fabric's ``SetEvent``).

    Fabric allows at most one event per transaction; it travels inside the
    endorsed payload (so all endorsers must agree on it) and is surfaced to
    clients with the commit notification.
    """

    name: str
    payload: Json = None

    def to_dict(self) -> dict:
        return {"name": self.name, "payload": self.payload}

    def digest_bytes(self) -> bytes:
        return to_bytes(self.to_dict())


@dataclass(frozen=True)
class Proposal:
    """A transaction proposal (Step 1 in Figure 1)."""

    tx_id: str
    channel: str
    chaincode: str
    function: str
    args: tuple[str, ...]
    creator: str  # client's qualified identity name
    submit_time: float = 0.0

    @classmethod
    def create(
        cls,
        channel: str,
        chaincode: str,
        function: str,
        args: tuple[str, ...],
        creator: str,
        nonce: int,
        submit_time: float = 0.0,
    ) -> "Proposal":
        """Build a proposal with a deterministic transaction ID.

        Fabric derives tx IDs as ``hash(nonce || creator)``; we add the call
        payload so IDs are stable and unique per logical submission.
        """

        material = to_bytes(
            {
                "channel": channel,
                "chaincode": chaincode,
                "function": function,
                "args": list(args),
                "creator": creator,
                "nonce": nonce,
            }
        )
        return cls(
            tx_id=short_hash(material, 16),
            channel=channel,
            chaincode=chaincode,
            function=function,
            args=args,
            creator=creator,
            submit_time=submit_time,
        )

    def header_bytes(self) -> bytes:
        return to_bytes(
            {
                "tx_id": self.tx_id,
                "channel": self.channel,
                "chaincode": self.chaincode,
                "function": self.function,
                "args": list(self.args),
                "creator": self.creator,
            }
        )


def rwset_to_dict(rwset: ReadWriteSet) -> dict:
    """Canonical dictionary form of a read-write set (for hashing/storage)."""

    return {
        "reads": [
            {"key": read.key, "version": str(read.version) if read.version else None}
            for read in rwset.reads
        ],
        "writes": [
            {
                "key": write.key,
                "value": write.value.hex(),
                "is_delete": write.is_delete,
                "is_crdt": write.is_crdt,
            }
            for write in rwset.writes
        ],
        "range_queries": [
            {
                "start_key": rq.start_key,
                "end_key": rq.end_key,
                "results_hash": rq.results_hash.hex(),
            }
            for rq in rwset.range_queries
        ],
    }


def _rwset_bytes(rwset: ReadWriteSet) -> bytes:
    """The canonical encoding every digest of a read-write set is taken over."""

    return to_bytes(rwset_to_dict(rwset))


def rwset_hash(rwset: ReadWriteSet) -> bytes:
    """SHA-256 of the canonical encoding, memoised on the immutable object."""

    digest = rwset._digest
    if digest is None:
        digest = sha256(_rwset_bytes(rwset))
        object.__setattr__(rwset, "_digest", digest)
    return digest


@dataclass(frozen=True)
class ProposalResponse:
    """One peer's endorsement of a proposal (Step 2 in Figure 1)."""

    tx_id: str
    endorser: str  # qualified peer identity
    rwset: ReadWriteSet
    chaincode_result: bytes
    endorsement: SignedPayload
    event: Optional[ChaincodeEvent] = None

    @property
    def response_hash(self) -> bytes:
        return sha256(endorsed_payload_bytes(self.rwset, self.chaincode_result, self.event))


def endorsed_payload_bytes(
    rwset: ReadWriteSet, chaincode_result: bytes, event: Optional[ChaincodeEvent]
) -> bytes:
    """The byte string endorsers sign over (and clients group responses by).

    Every variable-length component is length-framed and the event slot is
    tagged, so no two distinct (rwset, result, event) triples can collide —
    e.g. a result ending in an event digest is not confusable with a
    result-plus-event payload.
    """

    material = (
        rwset_hash(rwset)
        + len(chaincode_result).to_bytes(8, "big")
        + chaincode_result
    )
    if event is None:
        return material + b"\x00"
    return material + b"\x01" + event.digest_bytes()


@dataclass(frozen=True, slots=True)
class TransactionEnvelope:
    """The signed transaction submitted for ordering (Step 3 in Figure 1).

    ``_summary`` memoises ``(sha256(payload_bytes()), len(payload_bytes()))``
    for the size cut, VSCC and the data hash: digests and an int, never the
    bytes.  A copy (``with_rwset``, ``replace``, a wire decode) starts empty.
    """

    proposal: Proposal
    rwset: ReadWriteSet
    endorsements: tuple[SignedPayload, ...]
    chaincode_result: bytes = b""
    client_signature: Optional[SignedPayload] = None
    event: Optional[ChaincodeEvent] = None
    _summary: Optional[tuple[bytes, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def tx_id(self) -> str:
        return self.proposal.tx_id

    @property
    def tx_type(self) -> TxType:
        return TxType.CRDT if self.rwset.has_crdt_writes else TxType.STANDARD

    def payload_bytes(self) -> bytes:
        return self.proposal.header_bytes() + _rwset_bytes(self.rwset)

    def _summarise(self) -> tuple[bytes, int]:
        """Digest and length of :meth:`payload_bytes`, from one encoding of
        the read-write set that also fills its :func:`rwset_hash` memo."""

        summary = self._summary
        if summary is None:
            encoded = _rwset_bytes(self.rwset)
            if self.rwset._digest is None:
                object.__setattr__(self.rwset, "_digest", sha256(encoded))
            payload = self.proposal.header_bytes() + encoded
            summary = (sha256(payload), len(payload))
            object.__setattr__(self, "_summary", summary)
        return summary

    def payload_digest(self) -> bytes:
        """``sha256(payload_bytes())`` — the transaction's Merkle leaf."""

        return self._summarise()[0]

    def byte_size(self) -> int:
        """Approximate wire size, used by the orderer's byte-based cutting."""

        overhead_per_endorsement = 96  # signature + header, roughly
        return self._summarise()[1] + overhead_per_endorsement * len(self.endorsements)

    def with_rwset(self, rwset: ReadWriteSet) -> "TransactionEnvelope":
        """Copy with a replaced read-write set.

        Used by FabricCRDT's commit path when it substitutes merged CRDT
        values into the write-set (Algorithm 1, line 22).
        """

        return TransactionEnvelope(
            proposal=self.proposal,
            rwset=rwset,
            endorsements=self.endorsements,
            chaincode_result=self.chaincode_result,
            client_signature=self.client_signature,
            event=self.event,
        )


@dataclass
class EndorsementFailure:
    """Returned by a peer that refuses to endorse (chaincode error etc.)."""

    tx_id: str
    endorser: str
    reason: str
    chaincode_error: Optional[str] = None
