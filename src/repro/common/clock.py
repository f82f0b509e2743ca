"""Logical clocks.

The JSON CRDT identifies operations with Lamport timestamps: a pair of a
monotonically increasing counter and an actor ID, totally ordered by
``(counter, actor)``.  The paper (§5.2) instantiates one Lamport clock per
JSON CRDT and ticks it for every operation.
"""

from __future__ import annotations

from typing import NamedTuple


class LamportTimestamp(NamedTuple):
    """A Lamport timestamp ``(counter, actor)``.

    Ordering is lexicographic, which yields the arbitrary-but-deterministic
    total order CRDTs need for tie-breaking concurrent operations.  A tuple
    type because every set, dict and ``max`` of the JSON CRDT hashes and
    compares these: the tuple does both in C.
    """

    counter: int
    actor: str

    def __str__(self) -> str:
        return f"{self.counter}@{self.actor}"

    @classmethod
    def parse(cls, text: str) -> "LamportTimestamp":
        counter_s, _, actor = text.partition("@")
        return cls(int(counter_s), actor)


class LamportClock:
    """A mutable Lamport clock bound to one actor.

    ``tick()`` advances local time and returns a fresh timestamp; ``merge()``
    folds in a remotely observed timestamp so later local ticks dominate it.
    """

    __slots__ = ("actor", "_counter")

    def __init__(self, actor: str, start: int = 0) -> None:
        if not actor:
            raise ValueError("actor must be a non-empty string")
        if start < 0:
            raise ValueError("clock cannot start negative")
        self.actor = actor
        self._counter = start

    @property
    def time(self) -> int:
        """Current counter value (the last issued tick, 0 if none)."""

        return self._counter

    def tick(self) -> LamportTimestamp:
        """Advance the clock and return the new timestamp."""

        self._counter += 1
        return LamportTimestamp(self._counter, self.actor)

    def peek(self) -> LamportTimestamp:
        """The timestamp that *would* be issued by the next ``tick()``."""

        return LamportTimestamp(self._counter + 1, self.actor)

    def merge(self, observed: LamportTimestamp) -> None:
        """Fold in a remote timestamp: local counter becomes the max."""

        if observed.counter > self._counter:
            self._counter = observed.counter

    def __repr__(self) -> str:
        return f"LamportClock(actor={self.actor!r}, time={self._counter})"
