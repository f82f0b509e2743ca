"""Tests for crdt."""

from repro.common.serialization import from_bytes, to_bytes
from repro.crdt import StateCRDT, crdt_from_dict_envelope, crdt_to_dict_envelope


def envelope_roundtrip(crdt: StateCRDT) -> StateCRDT:
    """``crdt`` through the bytes a committer reads: envelope, canonical JSON, back."""

    return crdt_from_dict_envelope(from_bytes(to_bytes(crdt_to_dict_envelope(crdt))))
