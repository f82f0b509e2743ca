"""Operations: uniquely identified, causally ordered document mutations.

An operation is the unit of replication (the JSON CRDT is operation-based):
``id`` is globally unique, ``deps`` are the IDs that must be applied first
(the paper's "dependency list"), ``cursor`` locates the target node, and
``mutation`` says what to do there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cursor import Cursor
from .ids import OpId
from .mutation import Mutation


@dataclass(frozen=True, slots=True)
class Operation:
    """One uniquely identified mutation of a JSON document."""

    id: OpId
    deps: frozenset[OpId] = field(default_factory=frozenset)
    cursor: Cursor = field(default_factory=Cursor)
    mutation: Mutation = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.mutation is None:
            raise ValueError("operation requires a mutation")
        if self.id in self.deps:
            raise ValueError("operation cannot depend on itself")

    def __str__(self) -> str:
        kind = type(self.mutation).__name__
        return f"op {self.id} {kind}@{self.cursor}"
