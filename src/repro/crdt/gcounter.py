"""Grow-only counter (G-Counter).

The paper's §2.2 walk-through example: one entry per actor, increments only;
merge takes the per-actor maximum; the value is the sum.  An increment is
written once, as a δ-mutator (Almeida et al., delta-state CRDTs): the delta
is the actor's new entry, and the full mutator merges it in.
"""

from __future__ import annotations

from .base import StateCRDT


class GCounter(StateCRDT):
    """State-based grow-only counter."""

    type_name = "g-counter"

    __slots__ = ("_entries",)

    def __init__(self, entries: dict[str, int] | None = None) -> None:
        self._entries: dict[str, int] = {}
        for actor, count in (entries or {}).items():
            # Exactly int: a float would be truncated and a bool counted, and
            # either would make replicas disagree on what they merged.
            if type(count) is not int or count < 0:
                raise ValueError(f"count for {actor!r} must be a non-negative int: {count!r}")
            if count:
                self._entries[actor] = count

    def increment(self, actor: str, amount: int = 1) -> "GCounter":
        """Return a new counter with ``actor`` incremented by ``amount``."""

        return self.merge(self.increment_delta(actor, amount))

    def increment_delta(self, actor: str, amount: int = 1) -> "GCounter":
        """δ-mutator of :meth:`increment`: a counter holding only ``actor``'s
        new entry, which :meth:`increment` merges into this counter."""

        if amount < 0:
            raise ValueError("G-Counter cannot decrement; use PNCounter")
        return GCounter({actor: self._entries.get(actor, 0) + amount})

    def actor_count(self, actor: str) -> int:
        return self._entries.get(actor, 0)

    def merge(self, other: "GCounter") -> "GCounter":
        self._require_same_type(other)
        merged = dict(self._entries)
        for actor, count in other._entries.items():
            if count > merged.get(actor, 0):
                merged[actor] = count
        return self._trusted(merged)

    @classmethod
    def _trusted(cls, entries: dict[str, int]) -> "GCounter":
        """Wrap entries taken from counters that ``__init__`` already checked
        (positive ``int`` counts); the dict is adopted, not copied."""

        counter = cls.__new__(cls)
        counter._entries = entries
        return counter

    def value(self) -> int:
        return sum(self._entries.values())

    def to_dict(self) -> dict:
        return {"entries": dict(sorted(self._entries.items()))}

    @classmethod
    def from_dict(cls, payload: dict) -> "GCounter":
        return cls(dict(payload["entries"]))
