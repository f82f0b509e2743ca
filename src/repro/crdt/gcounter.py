"""Grow-only counter (G-Counter), operation-based on the ordered ledger.

The paper's §2.2 walk-through counter is state-based: one entry per actor,
merged by per-actor maximum, so that a replica may receive the same state
twice.  A FabricCRDT peer receives every transaction exactly once and in one
total order — the hash chain and the duplicate-TxID check see to that — which
is the delivery an operation-based counter needs (Almeida et al.).  So a
counter's state is one integer total, a write carries its transaction's
amount as a counter of its own, and ``merge`` adds.

Idempotence moves from the merge into the ledger: ``merge`` is commutative
and associative with identity ``0`` (a commutative monoid, not a
join-semilattice), and each written amount must be merged exactly once — the
committer merges one per VALID transaction, in block order.

A total and an amount are signed 64-bit integers.  A per-actor maximum never
grew past its largest write, but a sum does; without a bound, a few valid
writes could add up to an integer the committer cannot serialize.  A merge
whose sum leaves the range raises :class:`MergeTypeError`, so the committer
refuses the write that would overflow as ``BAD_PAYLOAD``.
"""

from __future__ import annotations

from ..common.errors import MergeTypeError
from .base import StateCRDT

#: Bounds of a total or an amount: a signed 64-bit integer.
MIN_TOTAL, MAX_TOTAL = -(2**63), 2**63 - 1


class Counter(StateCRDT):
    """Operation-based counter: one integer total, merged by addition."""

    #: True if an amount may be negative (a PN-Counter's may).
    signed = False

    __slots__ = ("_total",)

    def __init__(self, total: int = 0) -> None:
        self._total = self._amount(total)

    @classmethod
    def _amount(cls, amount: object) -> int:
        # Exactly int: a float would be truncated and a bool counted, and
        # either would make replicas disagree on what they added.
        low = MIN_TOTAL if cls.signed else 0
        if type(amount) is not int or not low <= amount <= MAX_TOTAL:
            sign = "a signed" if cls.signed else "a non-negative"
            raise ValueError(
                f"{cls.type_name} amount must be {sign} 64-bit int: {amount!r:.80}"
            )
        return amount

    def increment(self, amount: int = 1) -> "Counter":
        """Return a new counter holding this total plus ``amount``."""

        return self.merge(type(self)(amount))

    def merge(self, other: "Counter") -> "Counter":
        """Add ``other``'s total: applies the operation ``other`` carries.

        Raises :class:`MergeTypeError` if the sum leaves the 64-bit range.
        """

        self._require_same_type(other)
        total = self._total + other._total
        if not MIN_TOTAL <= total <= MAX_TOTAL:
            raise MergeTypeError(f"{self.type_name} total overflows 64 bits: {total!r:.80}")
        return type(self)(total)

    def value(self) -> int:
        return self._total

    def to_dict(self) -> dict:
        return {"total": self._total}

    @classmethod
    def from_dict(cls, payload: dict) -> "Counter":
        if payload.keys() != {"total"}:
            raise ValueError(f"{cls.type_name} state holds exactly a total: {payload!r:.80}")
        return cls(payload["total"])


class GCounter(Counter):
    """Grow-only counter: every amount is a non-negative ``int``."""

    type_name = "g-counter"

    __slots__ = ()
