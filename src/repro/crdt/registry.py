"""The state-CRDT types a committer merges, and their envelope codec.

The world state stores CRDT values as canonical-JSON envelopes
``{"$fabriccrdt": 1, "crdt": <type_name>, "state": <payload>}``.  The
``$fabriccrdt`` key is an explicit marker: committers and shims recognise an
envelope by its presence alone, so ordinary user JSON that happens to carry
``crdt``/``state`` keys is never mistaken for CRDT machinery.

The table restores the right class from an envelope without callers having
to know the type up front — which is exactly what FabricCRDT's commit path
needs when it meets a flagged CRDT key-value of unknown type (Algorithm 1,
line 9).  It holds exactly the types a ``ctx.crdt`` handle writes and is
fixed at import: validation is a deterministic function of the ordered
ledger, so the set of types a committer accepts is part of the validation
rule and must be the same on every peer.  Any other type name is refused.
"""

from __future__ import annotations

from ..common.errors import CRDTError, MergeTypeError, SerializationError
from .base import StateCRDT
from .gcounter import GCounter
from .lwwregister import LWWRegister
from .orset import ORSet
from .pncounter import PNCounter
from .text import TextDocument

#: Explicit envelope marker key: its presence identifies a serialized
#: state-CRDT envelope in the world state.
ENVELOPE_MARKER = "$fabriccrdt"
#: Envelope format version written by this codebase.
ENVELOPE_VERSION = 1

#: Type tag -> class, for every state CRDT a handle writes.
CRDT_TYPES: dict[str, type[StateCRDT]] = {
    cls.type_name: cls for cls in (GCounter, PNCounter, ORSet, LWWRegister, TextDocument)
}


def is_dict_envelope(value: object) -> bool:
    """True if ``value`` is a serialized state-CRDT envelope: a dict holding
    the ``$fabriccrdt`` marker and the ``crdt`` and ``state`` keys."""

    if not isinstance(value, dict):
        return False
    return ENVELOPE_MARKER in value and "crdt" in value and "state" in value


def crdt_to_dict_envelope(value: StateCRDT) -> dict:
    return {ENVELOPE_MARKER: ENVELOPE_VERSION, "crdt": value.type_name, "state": value.to_dict()}


def crdt_type_of(envelope: dict) -> type[StateCRDT]:
    """The class of the state CRDT an envelope holds, from its ``crdt`` tag
    alone: the ``state`` is not decoded.

    Raises :class:`MergeTypeError` for anything that is not an envelope of
    this version naming a type in :data:`CRDT_TYPES`.
    """

    if not is_dict_envelope(envelope):
        raise MergeTypeError(f"not a CRDT envelope: {envelope!r:.120}")
    if envelope[ENVELOPE_MARKER] != ENVELOPE_VERSION:
        raise MergeTypeError(f"unsupported envelope version: {envelope[ENVELOPE_MARKER]!r}")
    type_name = envelope["crdt"]
    cls = CRDT_TYPES.get(type_name) if isinstance(type_name, str) else None
    if cls is None:
        raise MergeTypeError(f"unknown CRDT type: {type_name!r:.120}")
    return cls


def crdt_from_dict_envelope(envelope: dict) -> StateCRDT:
    """The state CRDT an envelope holds.

    Raises :class:`MergeTypeError` for anything that is not a well-formed
    envelope of a type in :data:`CRDT_TYPES` — a committer decodes envelopes
    straight from client write-sets, so a malformed ``state`` must be refused
    like any other bad payload, never escape as a ``KeyError`` or
    ``TypeError``.
    """

    cls = crdt_type_of(envelope)
    try:
        return cls.from_dict(envelope["state"])
    except CRDTError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, SerializationError) as exc:
        raise MergeTypeError(f"malformed {cls.type_name} state: {exc!r:.120}") from exc
