"""The socket runtime's message vocabulary.

Every frame a peer, orderer or client sends is one JSON message with a
``type`` tag from :data:`MESSAGE_TYPES`; :func:`message_type` validates
the tag, :func:`error_message` and :func:`metrics_result_message` build the
two replies every server shares.  What the messages carry — proposals,
read-write sets, envelopes, blocks, committed blocks, block statuses — is
encoded by :mod:`repro.fabric.codec`, which every ledger also uses to keep
old blocks as bytes; this module re-exports its names, so ``repro.net``
imports the whole protocol from here, and decoding still raises only
:class:`WireError`.
"""

from __future__ import annotations

from typing import Any

from ..fabric.codec import (  # noqa: F401 - re-exported: the protocol's structures
    WireError,
    _require,
    dec_block,
    dec_block_status,
    dec_committed_block,
    dec_endorsement_failure,
    dec_envelope,
    dec_integer,
    dec_metadata,
    dec_number,
    dec_policy_node,
    dec_proposal,
    dec_proposal_response,
    dec_raw_block,
    dec_rwset,
    dec_version,
    enc_block,
    enc_block_status,
    enc_committed_block,
    enc_endorsement_failure,
    enc_envelope,
    enc_metadata,
    enc_policy_node,
    enc_proposal,
    enc_proposal_response,
    enc_rwset,
    enc_version,
    raw_block_payload,
)

#: Every message type a peer or orderer server understands or emits.
MESSAGE_TYPES = frozenset(
    {
        "ping",
        "pong",
        "endorse",
        "endorse_result",
        "broadcast",
        "broadcast_ack",
        "flush",
        "flush_ack",
        "deliver",
        "deliver_status",
        "block",
        "block_status",
        "raw_block",
        "ledger_info",
        "ledger_info_result",
        "metrics",
        "metrics_result",
        "error",
    }
)


def message_type(message: Any) -> str:
    """The validated ``type`` tag of a decoded message."""

    kind = _require(message, "type", "message")
    if kind not in MESSAGE_TYPES:
        raise WireError(f"unknown message type {kind!r}")
    return kind


def error_message(detail: str) -> dict:
    return {"type": "error", "error": detail}


def metrics_result_message(telemetry: Any, node: str, request: dict) -> dict:
    """The ``metrics_result`` reply for a node's (possibly absent) telemetry.

    ``telemetry`` is the node's :class:`~repro.telemetry.Telemetry` or
    ``None`` when the cluster ran without ``telemetry_enabled`` — the reply
    then carries ``enabled: false`` and an empty snapshot rather than an
    error, so clients can probe.  ``include_spans`` in the request adds the
    node's recorded lifecycle spans (process-local clock).
    """

    payload: dict = {
        "type": "metrics_result",
        "node": node,
        "enabled": telemetry is not None,
        "snapshot": telemetry.metrics.snapshot() if telemetry else {"metrics": []},
    }
    if telemetry is not None and request.get("include_spans"):
        payload["spans"] = [span.to_dict() for span in telemetry.spans]
    return payload
