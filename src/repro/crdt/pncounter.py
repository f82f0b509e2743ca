"""Positive-negative counter (PN-Counter): two G-Counters, P minus N.

Both mutators are δ-mutators underneath: the delta is one P or N entry.
"""

from __future__ import annotations

from .base import StateCRDT
from .gcounter import GCounter


class PNCounter(StateCRDT):
    """State-based counter supporting increment and decrement."""

    type_name = "pn-counter"

    __slots__ = ("_positive", "_negative")

    def __init__(self, positive: GCounter | None = None, negative: GCounter | None = None) -> None:
        self._positive = positive if positive is not None else GCounter()
        self._negative = negative if negative is not None else GCounter()

    def increment(self, actor: str, amount: int = 1) -> "PNCounter":
        return self.merge(self.increment_delta(actor, amount))

    def decrement(self, actor: str, amount: int = 1) -> "PNCounter":
        return self.merge(self.decrement_delta(actor, amount))

    def increment_delta(self, actor: str, amount: int = 1) -> "PNCounter":
        """δ-mutator of :meth:`increment`: one P entry (one N entry if
        ``amount`` is negative) and nothing else."""

        if amount < 0:
            return self.decrement_delta(actor, -amount)
        return PNCounter(self._positive.increment_delta(actor, amount))

    def decrement_delta(self, actor: str, amount: int = 1) -> "PNCounter":
        """δ-mutator of :meth:`decrement`: one N entry (one P entry if
        ``amount`` is negative) and nothing else."""

        if amount < 0:
            return self.increment_delta(actor, -amount)
        return PNCounter(negative=self._negative.increment_delta(actor, amount))

    def merge(self, other: "PNCounter") -> "PNCounter":
        self._require_same_type(other)
        return PNCounter(
            self._positive.merge(other._positive),
            self._negative.merge(other._negative),
        )

    def value(self) -> int:
        return self._positive.value() - self._negative.value()

    def to_dict(self) -> dict:
        return {"p": self._positive.to_dict(), "n": self._negative.to_dict()}

    @classmethod
    def from_dict(cls, payload: dict) -> "PNCounter":
        return cls(
            GCounter.from_dict(payload["p"]),
            GCounter.from_dict(payload["n"]),
        )
