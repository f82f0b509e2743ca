"""Cursors: paths from the document head to a mutation target.

A cursor is a tuple of steps.  :class:`MapStep` descends through a map key,
:class:`ListStep` through a list element (named by its element ID).  The
paper's Algorithm 2 builds cursors incrementally with
``AddCursorElement`` / ``RemoveCursorElement``; :class:`CursorBuilder`
reproduces that API for a literal transcription of the algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .ids import OpId


@dataclass(frozen=True, slots=True)
class MapStep:
    """Descend into the value bound to ``key`` of a map node."""

    key: str

    def __str__(self) -> str:
        return f".{self.key}"


@dataclass(frozen=True, slots=True)
class ListStep:
    """Descend into the list element identified by ``element_id``."""

    element_id: OpId

    def __str__(self) -> str:
        return f"[{self.element_id}]"


Step = Union[MapStep, ListStep]


@dataclass(frozen=True, slots=True)
class Cursor:
    """An immutable path of steps from the document root."""

    steps: tuple[Step, ...] = ()

    def extended(self, step: Step) -> "Cursor":
        return Cursor(self.steps + (step,))

    def parent(self) -> "Cursor":
        if not self.steps:
            raise ValueError("root cursor has no parent")
        return Cursor(self.steps[:-1])

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return "$" + "".join(str(step) for step in self.steps)

    def path_repr(self) -> str:
        """Stable textual form used for content-addressed IDs."""

        return str(self)


class CursorBuilder:
    """Mutable cursor used while walking a JSON value (Algorithm 2 style).

    Mirrors the paper's ``AddCursorElement`` / ``RemoveCursorElement`` calls:
    elements are pushed entering a container and popped when leaving it.
    """

    def __init__(self) -> None:
        self._steps: list[Step] = []

    def add_key(self, key: str) -> None:
        self._steps.append(MapStep(key))

    def add_element(self, element_id: OpId) -> None:
        self._steps.append(ListStep(element_id))

    def remove_last(self) -> None:
        if not self._steps:
            raise ValueError("cursor is already empty")
        self._steps.pop()

    def snapshot(self) -> Cursor:
        return Cursor(tuple(self._steps))

    def __len__(self) -> int:
        return len(self._steps)
