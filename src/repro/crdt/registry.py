"""Registry mapping CRDT type tags to classes, plus envelope (de)serialization.

The world state stores CRDT values as canonical-JSON envelopes
``{"$fabriccrdt": 1, "crdt": <type_name>, "state": <payload>}``.  The
``$fabriccrdt`` key is an explicit marker: committers and shims recognise an
envelope by its presence (plus validation) instead of sniffing the exact
key set, so ordinary user JSON that happens to carry ``crdt``/``state`` keys
is never mistaken for CRDT machinery.  Envelopes written before the marker
existed (exactly ``{"crdt": ..., "state": ...}``) are still read, provided
the type name is actually registered.

The registry restores the right class from an envelope without callers
having to know the type up front — which is exactly what FabricCRDT's commit
path needs when it meets a flagged CRDT key-value of unknown type
(Algorithm 1, line 9).
"""

from __future__ import annotations

from typing import Callable

from ..common.errors import CRDTError, MergeTypeError, SerializationError
from ..common.serialization import from_bytes, to_bytes
from .base import ENVELOPE_MARKER, ENVELOPE_VERSION, StateCRDT

_REGISTRY: dict[str, type[StateCRDT]] = {}


def register_crdt(cls: type[StateCRDT]) -> type[StateCRDT]:
    """Register a CRDT class under its ``type_name`` (idempotent).

    Usable as a decorator on new user-defined CRDT types.
    """

    existing = _REGISTRY.get(cls.type_name)
    if existing is not None and existing is not cls:
        raise MergeTypeError(
            f"type name {cls.type_name!r} already registered to {existing.__name__}"
        )
    _REGISTRY[cls.type_name] = cls
    return cls


def registered_types() -> dict[str, type[StateCRDT]]:
    """Snapshot of the registry (type tag -> class)."""

    _ensure_builtins()
    return dict(_REGISTRY)


def is_dict_envelope(value: object) -> bool:
    """True if ``value`` is a serialized state-CRDT envelope.

    New-format envelopes are recognised by the explicit ``$fabriccrdt``
    marker; legacy envelopes (written before the marker existed) by the
    exact ``{"crdt", "state"}`` key set *and* a registered type name, so
    arbitrary user JSON shaped like an envelope is treated as plain data.
    """

    if not isinstance(value, dict):
        return False
    if ENVELOPE_MARKER in value:
        return "crdt" in value and "state" in value
    # Legacy (pre-marker) envelopes: strict shape + a known type tag.
    if set(value.keys()) != {"crdt", "state"}:
        return False
    type_name = value["crdt"]
    if not isinstance(type_name, str):
        return False
    _ensure_builtins()
    return type_name in _REGISTRY


def crdt_to_dict_envelope(value: StateCRDT) -> dict:
    return {ENVELOPE_MARKER: ENVELOPE_VERSION, "crdt": value.type_name, "state": value.to_dict()}


def crdt_from_dict_envelope(envelope: dict) -> StateCRDT:
    """The state CRDT an envelope holds.

    Raises :class:`MergeTypeError` for anything that is not a well-formed
    envelope of a registered type — a committer decodes envelopes straight
    from client write-sets, so a malformed ``state`` must be refused like
    any other bad payload, never escape as a ``KeyError`` or ``TypeError``.
    """

    _ensure_builtins()
    if not isinstance(envelope, dict) or "crdt" not in envelope:
        raise MergeTypeError(f"not a CRDT envelope: {envelope!r:.120}")
    marker = envelope.get(ENVELOPE_MARKER)
    if marker is not None and marker != ENVELOPE_VERSION:
        raise MergeTypeError(f"unsupported envelope version: {marker!r}")
    if "state" not in envelope:
        raise MergeTypeError(f"envelope missing state payload: {envelope!r:.120}")
    type_name = envelope["crdt"]
    cls = _REGISTRY.get(type_name) if isinstance(type_name, str) else None
    if cls is None:
        raise MergeTypeError(f"unknown CRDT type: {type_name!r:.120}")
    try:
        return cls.from_dict(envelope["state"])
    except CRDTError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, SerializationError) as exc:
        raise MergeTypeError(f"malformed {type_name} state: {exc!r:.120}") from exc


def crdt_to_bytes(value: StateCRDT) -> bytes:
    return to_bytes(crdt_to_dict_envelope(value))


def crdt_from_bytes(data: bytes) -> StateCRDT:
    return crdt_from_dict_envelope(from_bytes(data))


def _ensure_builtins() -> None:
    """Populate the registry with the built-in types, lazily to avoid cycles."""

    if "g-counter" in _REGISTRY:
        return
    from .gcounter import GCounter
    from .gset import GSet
    from .lwwregister import LWWRegister
    from .mvregister import MVRegister
    from .orset import ORSet
    from .pncounter import PNCounter
    from .rga import RGA
    from .twophase import TwoPhaseSet

    for cls in (GCounter, PNCounter, GSet, TwoPhaseSet, ORSet, LWWRegister, MVRegister, RGA):
        register_crdt(cls)
    # ORMap and TextDocument import this module; register them late.
    from .ormap import ORMap
    from .text import TextDocument

    register_crdt(ORMap)
    register_crdt(TextDocument)


MergeFunction = Callable[[StateCRDT, StateCRDT], StateCRDT]


def merge_envelopes(left: bytes, right: bytes) -> bytes:
    """Merge two serialized CRDT envelopes of the same type.

    Convenience for storage layers that only hold bytes.
    """

    a = crdt_from_bytes(left)
    b = crdt_from_bytes(right)
    if type(a) is not type(b):
        raise MergeTypeError(
            f"cannot merge envelopes of {a.type_name!r} and {b.type_name!r}"
        )
    return crdt_to_bytes(a.merge(b))
