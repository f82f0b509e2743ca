"""Canonical serialization of JSON-like values.

Fabric stores chaincode values as opaque byte arrays; CouchDB interprets them
as JSON documents.  Determinism matters everywhere in this reproduction:
endorsements are compared byte-wise, block hashes must be identical across
peers, and CRDT content addresses are derived from value bytes.  This module
therefore defines *one* canonical encoding (sorted-key, compact-separator
UTF-8 JSON) used by every component.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring
from typing import Any

from .errors import SerializationError

_ENCODER = json.JSONEncoder(
    sort_keys=True,
    separators=(",", ":"),
    ensure_ascii=False,
    allow_nan=False,
)

#: ``_ENCODER``'s settings as a C encoder built once: ``JSONEncoder.encode``
#: builds a fresh one (and a closure) on every call, which costs more than
#: encoding a small value.  No circular-reference markers: JSON decodes to
#: trees, and a cyclic value still fails (``RecursionError``), never loops.
_ENCODE_CHUNKS = (
    c_make_encoder(None, _ENCODER.default, encode_basestring, None, ":", ",", True, False, False)
    if c_make_encoder is not None
    else None
)


def canonical_json(value: Any) -> str:
    """Serialize ``value`` to canonical JSON text.

    Raises :class:`SerializationError` for values outside the JSON model
    (sets, bytes, NaN, custom objects, cycles...).
    """

    try:
        if _ENCODE_CHUNKS is None:  # pragma: no cover - see _ENCODE_CHUNKS
            return _ENCODER.encode(value)
        return "".join(_ENCODE_CHUNKS(value, 0))
    except (TypeError, ValueError, RecursionError) as exc:
        raise SerializationError(f"value is not canonically serializable: {exc}") from exc


def to_bytes(value: Any) -> bytes:
    """Canonical JSON bytes for ``value`` (UTF-8)."""

    return canonical_json(value).encode("utf-8")


def from_bytes(data: bytes) -> Any:
    """Inverse of :func:`to_bytes`.

    Raises :class:`SerializationError` on malformed input so callers never
    have to catch ``json.JSONDecodeError`` directly — nor the bare
    ``ValueError`` of an integer literal past Python's digit limit, nor the
    ``RecursionError`` of nesting deeper than the parser's stack.
    """

    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # Unicode/JSONDecodeError included
        raise SerializationError(f"malformed value bytes: {exc}") from exc


def byte_size(value: Any) -> int:
    """Size in bytes of the canonical encoding (used by block cutting)."""

    return len(to_bytes(value))


def deep_copy_json(value: Any) -> Any:
    """Structural copy of a JSON value (cheaper than ``copy.deepcopy``)."""

    if isinstance(value, dict):
        return {k: deep_copy_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [deep_copy_json(item) for item in value]
    return value


def json_equal(left: Any, right: Any) -> bool:
    """Structural equality of two JSON values via canonical encoding."""

    return canonical_json(left) == canonical_json(right)
