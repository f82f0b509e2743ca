"""Algorithm 2 — ``MergeCRDT``: merge a JSON object into a JSON CRDT.

This module is FabricCRDT's view of the JSON CRDT engine.  The merge itself
lives in :mod:`repro.crdt.json`: it writes each field of the value straight
into the document's plain JSON, so it returns how many operations it
applied, not the operations — every peer merges the same block, so none is
ever shipped.  Here we bind it to the paper's names and to
:class:`~repro.common.config.CRDTConfig`, and add the ``InitEmptyCRDT``
factory from Algorithm 1 (line 9): the type of CRDT object instantiated
depends on the type of the value — plain JSON objects get a JSON CRDT;
values carrying a state-CRDT envelope (``{"$fabriccrdt": 1, "crdt": ...,
"state": ...}``, e.g. a G-Counter written by ``ctx.crdt.counter``) get the
corresponding state-based CRDT from :mod:`repro.crdt.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common.config import CRDTConfig
from ..common.errors import MergeTypeError, UnsupportedValueError
from ..common.serialization import from_bytes, to_bytes
from ..crdt.base import StateCRDT
from ..crdt.json import JsonDocument, MergeOptions, merge_json
from ..crdt.registry import (
    crdt_from_dict_envelope,
    crdt_to_dict_envelope,
    crdt_type_of,
    is_dict_envelope,
)


def merge_options(config: CRDTConfig) -> MergeOptions:
    """Translate FabricCRDT configuration into JSON-CRDT merge options."""

    return MergeOptions(
        dedup_identical=config.dedup_identical,
        stringify_scalars=config.stringify_scalars,
    )


@dataclass
class MergedKey:
    """The CRDT accumulated for one key during a block merge.

    Exactly one of ``document`` (JSON CRDT) / ``state_crdt`` is set; mixing
    the two kinds under one key within a block is a payload error.
    """

    key: str
    document: Optional[JsonDocument] = None
    state_crdt: Optional[StateCRDT] = None
    values_merged: int = 0

    @property
    def kind(self) -> str:
        return "json" if self.document is not None else "state"

    def to_committed_bytes(self) -> bytes:
        """Final value bytes to substitute into write-sets (Algorithm 1,
        lines 20–21): a JSON CRDT commits its plain JSON, which the document
        already holds; state CRDTs keep their envelope, which the next block
        seeds from (a counter's holds its total, a set's its tags and
        tombstones)."""

        if self.document is not None:
            return self.document.to_bytes()
        assert self.state_crdt is not None
        return to_bytes(crdt_to_dict_envelope(self.state_crdt))


def init_empty_crdt(key: str, value: object, actor: str = "") -> MergedKey:
    """``InitEmptyCRDT(key, value)`` — Algorithm 1, line 9.

    ``actor`` is accepted and ignored: the committed value is a function of
    the merged values alone, the same on every peer, so no clock actor is
    needed to make it byte-identical network-wide.  An envelope's type comes
    from its tag (:func:`crdt_type_of`, which refuses an unknown one); its
    state is decoded once, by the merge that follows.
    """

    if is_dict_envelope(value):
        return MergedKey(key=key, state_crdt=crdt_type_of(value)())  # empty state
    if isinstance(value, dict):
        return MergedKey(key=key, document=JsonDocument())
    raise UnsupportedValueError(
        f"CRDT value for key {key!r} must be a JSON object or CRDT envelope, "
        f"got {type(value).__name__}"
    )


def merge_crdt(merged: MergedKey, value: object, config: CRDTConfig) -> int:
    """``MergeCRDT(CRDT, value)`` — Algorithm 1 line 11 / Algorithm 2.

    Returns the number of JSON-CRDT operations applied (0 for envelope
    merges).  Raises :class:`MergeTypeError` when the value kind does not match the
    CRDT accumulated so far for this key, and
    :class:`UnsupportedValueError` for payloads outside the supported model.
    """

    if is_dict_envelope(value):
        if merged.state_crdt is None:
            raise MergeTypeError(
                f"key {merged.key!r}: envelope value after JSON values in one block"
            )
        incoming = crdt_from_dict_envelope(value)
        merged.state_crdt = merged.state_crdt.merge(incoming)  # type: ignore[arg-type]
        merged.values_merged += 1
        return 0
    if not isinstance(value, dict):
        raise UnsupportedValueError(
            f"key {merged.key!r}: unsupported CRDT payload {type(value).__name__}"
        )
    if merged.document is None:
        raise MergeTypeError(
            f"key {merged.key!r}: JSON value after envelope values in one block"
        )
    applied = merge_json(merged.document, value, merge_options(config))
    merged.values_merged += 1
    return applied


def merge_value_bytes(merged: MergedKey, raw: bytes, config: CRDTConfig) -> int:
    """Decode a write-set value (Algorithm 1's binary conversion) and merge."""

    return merge_crdt(merged, from_bytes(raw), config)
