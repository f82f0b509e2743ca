"""The state-based CRDT interface and its merge laws.

A state-based CRDT (:class:`StateCRDT`, the paper's background, §2.2)
replicates by exchanging whole states and ``merge``-ing them; merge must be
commutative, associative, and idempotent — i.e. a join-semilattice.  The
counters are the exception: the ordered ledger merges each write exactly
once, so their merge adds (commutative and associative with identity 0, not
idempotent — see :mod:`repro.crdt.gcounter`).  The property-based tests in
``tests/crdt/test_merge_laws.py`` check these laws for every concrete type.
The JSON CRDT (:mod:`repro.crdt.json`) is the other kind the paper uses:
every peer merges the same ordered block into it, so it exchanges nothing
and needs no interface here.

Every CRDT serializes to and from a JSON payload (``to_dict`` /
``from_dict``); :mod:`repro.crdt.registry` wraps the payload in the one
envelope format the world state holds.
"""

from __future__ import annotations

from typing import Any, TypeVar

from ..common.errors import MergeTypeError
from ..common.serialization import to_bytes

S = TypeVar("S", bound="StateCRDT")


class StateCRDT:
    """Abstract state-based CRDT."""

    #: Short type tag written into the serialization envelope.
    type_name: str = "state-crdt"

    def merge(self: S, other: S) -> S:
        """Return the least upper bound of ``self`` and ``other`` (for a
        counter, their sum).

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
