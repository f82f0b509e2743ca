"""The state-based CRDT interface and its merge laws.

A state-based CRDT (:class:`StateCRDT`, the paper's background, §2.2)
replicates by exchanging whole states and ``merge``-ing them; merge must be
commutative, associative, and idempotent — i.e. a join-semilattice.  The
property-based tests in ``tests/crdt/test_merge_laws.py`` check these laws
for every concrete type.  The JSON CRDT (:mod:`repro.crdt.json`) is the other
kind the paper uses: every peer merges the same ordered block into it, so it
exchanges nothing and needs no interface here.

Every CRDT serializes to/from canonical JSON so values can live in the
Fabric world state as bytes.
"""

from __future__ import annotations

from typing import Any, TypeVar

from ..common.errors import MergeTypeError
from ..common.serialization import from_bytes, to_bytes

S = TypeVar("S", bound="StateCRDT")

#: Explicit envelope marker key: its presence (not the exact key set)
#: identifies a serialized state-CRDT envelope in the world state.
ENVELOPE_MARKER = "$fabriccrdt"
#: Envelope format version written by this codebase.
ENVELOPE_VERSION = 1


class StateCRDT:
    """Abstract state-based CRDT."""

    #: Short type tag written into the serialization envelope.
    type_name: str = "state-crdt"

    def merge(self: S, other: S) -> S:
        """Return the least upper bound of ``self`` and ``other``.

        Must not mutate either operand.
        """

        raise NotImplementedError

    def value(self) -> Any:
        """The user-facing value (e.g. an ``int`` for counters)."""

        raise NotImplementedError

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible state payload (without the envelope)."""

        raise NotImplementedError

    @classmethod
    def from_dict(cls: type[S], payload: dict) -> S:
        raise NotImplementedError

    def to_bytes(self) -> bytes:
        """Canonical envelope bytes (marker + type tag + state payload)."""

        return to_bytes(
            {ENVELOPE_MARKER: ENVELOPE_VERSION, "crdt": self.type_name, "state": self.to_dict()}
        )

    @classmethod
    def from_bytes(cls: type[S], data: bytes) -> S:
        envelope = from_bytes(data)
        if not isinstance(envelope, dict) or envelope.get("crdt") != cls.type_name:
            raise MergeTypeError(
                f"expected a {cls.type_name} envelope, got {envelope!r:.120}"
            )
        return cls.from_dict(envelope["state"])

    # -- helpers -------------------------------------------------------------

    def _require_same_type(self, other: "StateCRDT") -> None:
        if type(other) is not type(self):
            raise MergeTypeError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}"
            )

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.to_dict() == other.to_dict()  # type: ignore[attr-defined]

    def __hash__(self) -> int:  # frozen-by-convention; states compare by content
        return hash(to_bytes(self.to_dict()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.value()!r})"


def tombstones_from_dict(raw: dict) -> dict[str, set[str]]:
    """Observed-remove tombstones ``{key: [tag, ...]}`` as sets.

    Raises ``ValueError`` unless every tag is a string: tags are sorted when
    the state is written back, and a stray number among them would fail
    there, in the committer, instead of here.
    """

    tombstones = {key: set(tags) for key, tags in raw.items()}
    for tags in tombstones.values():
        if not all(type(tag) is str for tag in tags):
            raise ValueError(f"tombstone tags must be strings: {sorted(map(repr, tags))}")
    return tombstones

