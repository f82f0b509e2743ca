"""The object codec: protocol structures <-> their JSON form.

One encoder/decoder pair per protocol structure (proposals, read-write
sets, proposal responses, envelopes, blocks, committed blocks, and the
*block status* a light client follows commits by).  The socket runtime's
messages carry these forms (:mod:`repro.net.wire` adds only the message
vocabulary), and every ledger keeps a block that left its decoded window
as :func:`raw_block_payload`'s bytes, so this module lives beside the
structures it encodes and imports nothing of :mod:`repro.net`.  Encoding
rules:

* ``bytes`` fields travel base64 (signatures, hashes, chaincode values);
* :class:`~repro.common.types.Version` travels as its compact ``"b:t"``
  string (``None`` for never-committed keys);
* :class:`~repro.common.types.ValidationCode` travels by name;
* an endorsement-policy tree — only in a cluster profile's chaincode
  definitions, never in a transaction — travels as tagged dicts
  (``{"principal": org}`` / ``{"out_of": {...}}``).

Every decoder is *strict*: unknown validation codes, malformed versions,
missing fields, or the wrong JSON shape (a non-object, a non-list where a
list is required, a non-number where a number is required, a non-string
where a name or key belongs) and values the protocol types refuse (an
invalid policy, a delete carrying a value) raise :class:`WireError` — never
a bare ``KeyError`` / ``TypeError`` / ``ValueError`` a server, reader loop
or ledger would have to guess about.  A decoded block shares what its
transactions repeat (names, keys, versions; see :class:`_BlockDecoder`).
Round-tripping is exact (``decode(encode(x)) == x``), which the hypothesis
property tests in ``tests/net`` pin down per message type; exactness
matters beyond hygiene because block data hashes are recomputed from
decoded envelopes on the far side — a lossy codec would break the hash
chain, not just a field.
"""

from __future__ import annotations

import base64
import binascii
from typing import Any, Optional

from ..common.errors import FabricError, PolicyError, SerializationError
from ..common.serialization import from_bytes, to_bytes
from ..common.types import (
    RangeQueryInfo,
    ReadItem,
    ReadWriteSet,
    TxStatus,
    ValidationCode,
    Version,
    WriteItem,
)
from .block import Block, BlockHeader, BlockMetadata, CommittedBlock
from .identity import SignedPayload
from .policy import OutOf, Principal
from .transaction import (
    ChaincodeEvent,
    EndorsementFailure,
    Proposal,
    ProposalResponse,
    TransactionEnvelope,
)


class WireError(FabricError):
    """A message failed to decode against the schema."""


def _require(mapping: Any, key: str, context: str) -> Any:
    if not isinstance(mapping, dict):
        raise WireError(f"{context}: expected an object, got {type(mapping).__name__}")
    try:
        return mapping[key]
    except KeyError:
        raise WireError(f"{context}: missing field {key!r}") from None


def _object(data: Any, context: str) -> dict:
    if not isinstance(data, dict):
        raise WireError(f"{context}: expected an object, got {type(data).__name__}")
    return data


def _list(data: Any, context: str) -> list:
    if not isinstance(data, list):
        raise WireError(f"{context}: expected a list, got {type(data).__name__}")
    return data


# -- scalars ----------------------------------------------------------------


def enc_bytes(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def dec_bytes(text: Any, context: str = "bytes") -> bytes:
    if not isinstance(text, str):
        raise WireError(f"{context}: expected a base64 string")
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (binascii.Error, ValueError) as exc:
        raise WireError(f"{context}: invalid base64: {exc}") from None


def dec_number(value: Any, context: str = "number") -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireError(f"{context}: expected a number, got {value!r}")
    return float(value)


def dec_integer(value: Any, context: str = "integer") -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireError(f"{context}: expected an integer, got {value!r}")
    return value


def enc_version(version: Optional[Version]) -> Optional[str]:
    return str(version) if version is not None else None


def dec_version(text: Any, context: str = "version") -> Optional[Version]:
    if text is None:
        return None
    if not isinstance(text, str):
        raise WireError(f"{context}: expected a 'b:t' string")
    try:
        return Version.parse(text)
    except (ValueError, TypeError) as exc:
        raise WireError(f"{context}: malformed version {text!r}: {exc}") from None


def dec_validation_code(name: Any, context: str = "validation code") -> ValidationCode:
    try:
        return ValidationCode[name]
    except (KeyError, TypeError):
        raise WireError(f"{context}: unknown validation code {name!r}") from None


# -- endorsement policies -----------------------------------------------------


def enc_policy_node(node) -> dict:
    if isinstance(node, Principal):
        return {"principal": node.org_name}
    if isinstance(node, OutOf):
        return {
            "out_of": {
                "threshold": node.threshold,
                "rules": [enc_policy_node(rule) for rule in node.rules],
            }
        }
    raise WireError(f"unencodable policy node {type(node).__name__}")


def dec_policy_node(data: Any, context: str = "policy"):
    if not isinstance(data, dict):
        raise WireError(f"{context}: expected a tagged policy object")
    if "principal" in data:
        org = data["principal"]
        if not isinstance(org, str):
            raise WireError(f"{context}: principal must name an org")
        return Principal(org)
    if "out_of" in data:
        body = data["out_of"]
        threshold = _require(body, "threshold", context)
        rules = _require(body, "rules", context)
        if (
            isinstance(threshold, bool)
            or not isinstance(threshold, int)
            or not isinstance(rules, list)
        ):
            raise WireError(f"{context}: malformed out_of node")
        try:
            return OutOf(
                threshold,
                tuple(dec_policy_node(rule, context) for rule in rules),
            )
        except (PolicyError, RecursionError) as exc:
            raise WireError(f"{context}: invalid out_of node: {exc}") from None
    raise WireError(f"{context}: unknown policy tag in {sorted(data)}")


# -- read-write sets ----------------------------------------------------------


def enc_rwset(rwset: ReadWriteSet) -> dict:
    return {
        "reads": [
            {"key": read.key, "version": enc_version(read.version)}
            for read in rwset.reads
        ],
        "writes": [
            {
                "key": write.key,
                "value": enc_bytes(write.value),
                "is_delete": write.is_delete,
                "is_crdt": write.is_crdt,
            }
            for write in rwset.writes
        ],
        "range_queries": [
            {
                "start_key": rq.start_key,
                "end_key": rq.end_key,
                "results_hash": enc_bytes(rq.results_hash),
            }
            for rq in rwset.range_queries
        ],
    }


def dec_rwset(data: Any, context: str = "rwset") -> ReadWriteSet:
    return _Decoder().rwset(data, context)


# -- identities and events ----------------------------------------------------


def enc_signed(signed: SignedPayload) -> dict:
    return {
        "payload_hash": enc_bytes(signed.payload_hash),
        "signer": signed.signer,
        "signature": enc_bytes(signed.signature),
    }


def dec_signed(data: Any, context: str = "signed payload") -> SignedPayload:
    return _Decoder().signed(data, context)


def enc_event(event: Optional[ChaincodeEvent]) -> Optional[dict]:
    if event is None:
        return None
    return {"name": event.name, "payload": event.payload}


def dec_event(data: Any, context: str = "event") -> Optional[ChaincodeEvent]:
    return _Decoder().event(data, context)


# -- the decoders -------------------------------------------------------------


def _string(mapping: Any, key: str, context: str) -> str:
    value = _require(mapping, key, context)
    if not isinstance(value, str):
        raise WireError(f"{context}.{key}: expected a string, got {type(value).__name__}")
    return value


class _Decoder:
    """Decodes one structure on its own: an endorse request, a broadcast.

    Every name goes through :meth:`name`, which refuses a non-string: a list
    where a name belongs would reach a peer's tx index, signature check or
    merge as an unhashable key.
    """

    __slots__ = ()

    def name(self, mapping: Any, key: str, context: str) -> str:
        return _string(mapping, key, context)

    def version(self, text: Any, context: str) -> Optional[Version]:
        return dec_version(text, context)

    def write(self, item: Any, context: str) -> WriteItem:
        key = self.name(item, "key", context)
        value = dec_bytes(_require(item, "value", context), context)
        is_delete = bool(item.get("is_delete", False))
        is_crdt = bool(item.get("is_crdt", False))
        try:
            return WriteItem(key, value, is_delete, is_crdt)
        except ValueError as exc:  # WriteItem's own invariants
            raise WireError(f"{context}: {exc}") from None

    def rwset(self, data: Any, context: str) -> ReadWriteSet:
        reads_context = f"{context}.reads"
        reads = tuple(
            ReadItem(
                key=self.name(item, "key", reads_context),
                version=self.version(item.get("version"), reads_context),
            )
            for item in _list(_require(data, "reads", context), reads_context)
        )
        writes_context = f"{context}.writes"
        writes = tuple(
            self.write(item, writes_context)
            for item in _list(_require(data, "writes", context), writes_context)
        )
        ranges_context = f"{context}.range_queries"
        range_queries = tuple(
            RangeQueryInfo(
                start_key=self.name(item, "start_key", ranges_context),
                end_key=self.name(item, "end_key", ranges_context),
                results_hash=dec_bytes(
                    _require(item, "results_hash", ranges_context), ranges_context
                ),
            )
            for item in _list(_require(data, "range_queries", context), ranges_context)
        )
        return ReadWriteSet(reads, writes, range_queries)

    def signed(self, data: Any, context: str) -> SignedPayload:
        return SignedPayload(
            payload_hash=dec_bytes(_require(data, "payload_hash", context), context),
            signer=self.name(data, "signer", context),
            signature=dec_bytes(_require(data, "signature", context), context),
        )

    def event(self, data: Any, context: str) -> Optional[ChaincodeEvent]:
        if data is None:
            return None
        return ChaincodeEvent(name=self.name(data, "name", context), payload=data.get("payload"))

    def proposal(self, data: Any, context: str) -> Proposal:
        args = _require(data, "args", context)
        if not isinstance(args, list) or not all(isinstance(arg, str) for arg in args):
            raise WireError(f"{context}: args must be a list of strings")
        return Proposal(
            tx_id=_string(data, "tx_id", context),
            channel=self.name(data, "channel", context),
            chaincode=self.name(data, "chaincode", context),
            function=self.name(data, "function", context),
            args=tuple(args),
            creator=self.name(data, "creator", context),
            submit_time=dec_number(
                _require(data, "submit_time", context), f"{context}.submit_time"
            ),
        )

    def envelope(self, data: Any, context: str) -> TransactionEnvelope:
        client_signature = _object(data, context).get("client_signature")
        return TransactionEnvelope(
            proposal=self.proposal(_require(data, "proposal", context), f"{context}.proposal"),
            rwset=self.rwset(_require(data, "rwset", context), f"{context}.rwset"),
            endorsements=tuple(
                self.signed(item, f"{context}.endorsements")
                for item in _list(
                    _require(data, "endorsements", context), f"{context}.endorsements"
                )
            ),
            chaincode_result=dec_bytes(_require(data, "chaincode_result", context), context),
            client_signature=(
                self.signed(client_signature, f"{context}.client_signature")
                if client_signature is not None
                else None
            ),
            event=self.event(data.get("event"), f"{context}.event"),
        )

    def block(self, data: Any, context: str) -> Block:
        transactions_context = f"{context}.transactions"
        return Block(
            header=dec_header(_require(data, "header", context), f"{context}.header"),
            transactions=tuple(
                self.envelope(item, transactions_context)
                for item in _list(
                    _require(data, "transactions", context), transactions_context
                )
            ),
            cut_reason=_string(data, "cut_reason", context),
            cut_time=dec_number(_require(data, "cut_time", context), f"{context}.cut_time"),
        )


class _BlockDecoder(_Decoder):
    """Decodes one block's envelopes against one table that lives as long as
    the decode.

    What a block's transactions repeat — the channel, chaincode, function,
    creator and signer names, the read/write keys and the read versions — is
    decoded into one object the whole block shares, so a committing peer or
    a client mirror keeps it once per block, not once per transaction.
    Nothing is shared across blocks, and nothing is interned process-wide.
    """

    __slots__ = ("_names", "_versions")

    def __init__(self) -> None:
        self._names: dict[str, str] = {}
        self._versions: dict[str, Version] = {}

    def name(self, mapping: Any, key: str, context: str) -> str:
        value = _string(mapping, key, context)
        return self._names.setdefault(value, value)

    def version(self, text: Any, context: str) -> Optional[Version]:
        if not isinstance(text, str):
            return dec_version(text, context)  # ``None``, or a WireError
        version = self._versions.get(text)
        if version is None:
            version = self._versions[text] = dec_version(text, context)
        return version


# -- proposals / responses / envelopes ---------------------------------------


def enc_proposal(proposal: Proposal) -> dict:
    return {
        "tx_id": proposal.tx_id,
        "channel": proposal.channel,
        "chaincode": proposal.chaincode,
        "function": proposal.function,
        "args": list(proposal.args),
        "creator": proposal.creator,
        "submit_time": proposal.submit_time,
    }


def dec_proposal(data: Any, context: str = "proposal") -> Proposal:
    return _Decoder().proposal(data, context)


def enc_proposal_response(response: ProposalResponse) -> dict:
    return {
        "tx_id": response.tx_id,
        "endorser": response.endorser,
        "rwset": enc_rwset(response.rwset),
        "chaincode_result": enc_bytes(response.chaincode_result),
        "endorsement": enc_signed(response.endorsement),
        "event": enc_event(response.event),
    }


def dec_proposal_response(data: Any, context: str = "proposal response") -> ProposalResponse:
    decoder = _Decoder()
    return ProposalResponse(
        tx_id=_require(data, "tx_id", context),
        endorser=_require(data, "endorser", context),
        rwset=decoder.rwset(_require(data, "rwset", context), f"{context}.rwset"),
        chaincode_result=dec_bytes(_require(data, "chaincode_result", context), context),
        endorsement=decoder.signed(_require(data, "endorsement", context), context),
        event=decoder.event(data.get("event"), f"{context}.event"),
    )


def enc_endorsement_failure(failure: EndorsementFailure) -> dict:
    return {
        "tx_id": failure.tx_id,
        "endorser": failure.endorser,
        "reason": failure.reason,
        "chaincode_error": failure.chaincode_error,
    }


def dec_endorsement_failure(data: Any, context: str = "endorsement failure") -> EndorsementFailure:
    return EndorsementFailure(
        tx_id=_require(data, "tx_id", context),
        endorser=_require(data, "endorser", context),
        reason=_require(data, "reason", context),
        chaincode_error=data.get("chaincode_error"),
    )


def enc_envelope(envelope: TransactionEnvelope) -> dict:
    return {
        "proposal": enc_proposal(envelope.proposal),
        "rwset": enc_rwset(envelope.rwset),
        "endorsements": [enc_signed(signed) for signed in envelope.endorsements],
        "chaincode_result": enc_bytes(envelope.chaincode_result),
        "client_signature": (
            enc_signed(envelope.client_signature)
            if envelope.client_signature is not None
            else None
        ),
        "event": enc_event(envelope.event),
    }


def dec_envelope(data: Any, context: str = "envelope") -> TransactionEnvelope:
    return _Decoder().envelope(data, context)


# -- blocks ------------------------------------------------------------------


def enc_header(header: BlockHeader) -> dict:
    return {
        "number": header.number,
        "previous_hash": enc_bytes(header.previous_hash),
        "data_hash": enc_bytes(header.data_hash),
    }


def enc_block(block: Block) -> dict:
    return {
        "header": enc_header(block.header),
        "transactions": [enc_envelope(tx) for tx in block.transactions],
        "cut_reason": block.cut_reason,
        "cut_time": block.cut_time,
    }


def dec_header(data: Any, context: str = "block header") -> BlockHeader:
    return BlockHeader(
        number=dec_integer(_require(data, "number", context), f"{context}.number"),
        previous_hash=dec_bytes(_require(data, "previous_hash", context), context),
        data_hash=dec_bytes(_require(data, "data_hash", context), context),
    )


def dec_block(data: Any, context: str = "block") -> Block:
    """A block whose transactions share what they repeat (see :class:`_BlockDecoder`)."""

    return _BlockDecoder().block(data, context)


def raw_block_payload(block: Block) -> bytes:
    """The payload of the ``raw_block`` frame the orderer sends for ``block``:
    what every ledger keeps of a block once it leaves the decoded window."""

    return to_bytes({"type": "raw_block", "block": enc_block(block)})


def dec_raw_block(payload: bytes) -> Block:
    """The block of a ``raw_block`` frame's payload (the orderer's deliver
    stream; also how a ledger reads a block it stored as that payload)."""

    try:
        message = from_bytes(payload)
    except SerializationError as exc:
        raise WireError(f"raw_block frame: {exc}") from None
    kind = _require(message, "type", "message")
    if kind != "raw_block":
        raise WireError(f"orderer deliver stream sent {kind!r}")
    return dec_block(message.get("block"))


def enc_metadata(metadata: BlockMetadata) -> dict:
    return {
        "block_num": metadata.block_num,
        "flags": [code.name for code in metadata.flags],
    }


def dec_metadata(data: Any, context: str = "metadata") -> BlockMetadata:
    return BlockMetadata(
        block_num=dec_integer(_require(data, "block_num", context), f"{context}.block_num"),
        flags=[
            dec_validation_code(name, context)
            for name in _list(_require(data, "flags", context), f"{context}.flags")
        ],
    )


def enc_committed_block(committed: CommittedBlock) -> dict:
    effective = None
    if committed.effective_writes is not None:
        effective = [
            {
                "tx_index": tx_index,
                "key": write.key,
                "value": enc_bytes(write.value),
                "is_delete": write.is_delete,
                "is_crdt": write.is_crdt,
            }
            for tx_index, write in committed.effective_writes
        ]
    return {
        "block": enc_block(committed.block),
        "metadata": enc_metadata(committed.metadata),
        "commit_time": committed.commit_time,
        "effective_writes": effective,
    }


def dec_committed_block(data: Any, context: str = "committed block") -> CommittedBlock:
    decoder = _BlockDecoder()
    effective_raw = _object(data, context).get("effective_writes")
    effective = None
    if effective_raw is not None:
        effective = tuple(
            (
                dec_integer(
                    _require(item, "tx_index", f"{context}.effective_writes"),
                    f"{context}.effective_writes.tx_index",
                ),
                decoder.write(item, f"{context}.effective_writes"),
            )
            for item in _list(effective_raw, f"{context}.effective_writes")
        )
    return CommittedBlock(
        block=decoder.block(_require(data, "block", context), f"{context}.block"),
        metadata=dec_metadata(_require(data, "metadata", context), f"{context}.metadata"),
        commit_time=dec_number(_require(data, "commit_time", context), f"{context}.commit_time"),
        effective_writes=effective,
    )


def enc_block_status(committed: CommittedBlock) -> dict:
    """A committed block as a light client needs it (Fabric's *filtered block*):
    the header that chains it, the commit time, and ``[tx_id, code,
    submit_time]`` per transaction — no read-write sets, no payloads."""

    metadata = committed.metadata
    return {
        "header": enc_header(committed.block.header),
        "commit_time": committed.commit_time,
        "txs": [
            [tx.tx_id, metadata.code_for(index).name, tx.proposal.submit_time]
            for index, tx in enumerate(committed.block.transactions)
        ],
    }


def dec_block_status(
    data: Any, context: str = "block status"
) -> tuple[BlockHeader, list[TxStatus]]:
    """The block's header and exactly ``statuses_from_block`` of the full block."""

    header = dec_header(_require(data, "header", context), f"{context}.header")
    commit_time = dec_number(_require(data, "commit_time", context), f"{context}.commit_time")
    statuses = []
    for tx_num, item in enumerate(_list(_require(data, "txs", context), f"{context}.txs")):
        if not isinstance(item, list) or len(item) != 3 or not isinstance(item[0], str):
            raise WireError(f"{context}.txs: expected [tx_id, code, submit_time]")
        statuses.append(
            TxStatus(
                tx_id=item[0],
                code=dec_validation_code(item[1], f"{context}.txs"),
                block_num=header.number,
                tx_num=tx_num,
                submit_time=dec_number(item[2], f"{context}.txs.submit_time"),
                commit_time=commit_time,
            )
        )
    return header, statuses
