"""A collaborative plain-text CRDT on top of RGA.

Ref [23] (Kleppmann & Beresford) discusses representing text documents with
the JSON CRDT's list type; this module provides the direct form: a character
sequence as an RGA, with index-based ``insert``/``delete`` editing and
state-based ``merge``.  It backs the collaborative-editing story the paper
motivates (§6) and exercises the RGA under realistic editing patterns.

Concurrent insertions at the same spot resolve by the RGA sibling rule
(higher ID first), so runs typed concurrently by two authors never
interleave character-by-character: each author's run stays contiguous
because every character anchors on its predecessor.
"""

from __future__ import annotations

from typing import Optional

from ..common.clock import LamportClock
from .base import StateCRDT
from .rga import HEAD, RGA


class TextDocument(StateCRDT):
    """A replicated editable string."""

    type_name = "text-document"

    __slots__ = ("_rga", "_clock")

    def __init__(self, actor: str = "editor", rga: Optional[RGA] = None,
                 clock: Optional[LamportClock] = None) -> None:
        self._rga = rga if rga is not None else RGA()
        self._clock = clock if clock is not None else LamportClock(actor)
        for element_id in self._rga.element_ids(include_deleted=True):
            self._clock.merge(element_id)

    @property
    def actor(self) -> str:
        return self._clock.actor

    # -- reading -------------------------------------------------------------

    def text(self) -> str:
        return "".join(self._rga)

    def __len__(self) -> int:
        return len(self._rga)

    def value(self) -> str:
        return self.text()

    # -- editing (functional: returns the new document) ------------------------

    def insert(self, index: int, text: str) -> "TextDocument":
        """Insert ``text`` before position ``index`` (``len`` appends)."""

        visible = self._rga.element_ids()
        if not 0 <= index <= len(visible):
            raise IndexError(f"insert position {index} out of range 0..{len(visible)}")
        anchor = HEAD if index == 0 else visible[index - 1]
        rga = self._rga
        clock = LamportClock(self._clock.actor, start=self._clock.time)
        for character in text:
            element_id = clock.tick()
            rga = rga.insert_after(anchor, element_id, character)
            anchor = element_id
        return TextDocument(self._clock.actor, rga, clock)

    def delete(self, index: int, length: int = 1) -> "TextDocument":
        """Delete ``length`` characters starting at ``index``."""

        visible = self._rga.element_ids()
        if length < 0:
            raise ValueError("length must be non-negative")
        if index < 0 or index + length > len(visible):
            raise IndexError(
                f"delete range {index}:{index + length} out of range (len={len(visible)})"
            )
        rga = self._rga
        for element_id in visible[index : index + length]:
            rga = rga.delete(element_id)
        clock = LamportClock(self._clock.actor, start=self._clock.time)
        return TextDocument(self._clock.actor, rga, clock)

    def append(self, text: str) -> "TextDocument":
        return self.insert(len(self), text)

    # -- replication -----------------------------------------------------------

    def merge(self, other: "TextDocument") -> "TextDocument":
        self._require_same_type(other)
        return TextDocument(self._clock.actor, self._rga.merge(other._rga))

    def fork(self, actor: str) -> "TextDocument":
        """A new replica of the current state editing under ``actor``.

        Forks share history; their clocks advance independently but both
        start past every existing element ID, so fresh edits never collide.
        """

        return TextDocument(actor, self._rga)

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {"actor": self._clock.actor, "rga": self._rga.to_dict()}

    @classmethod
    def from_dict(cls, payload: dict) -> "TextDocument":
        rga = RGA.from_dict(payload["rga"])
        if not all(type(cell["value"]) is str for cell in payload["rga"]["cells"]):
            raise ValueError("text cells hold strings")
        return cls(payload["actor"], rga)

    def __repr__(self) -> str:
        preview = self.text()
        if len(preview) > 24:
            preview = preview[:21] + "..."
        return f"TextDocument(actor={self.actor!r}, text={preview!r})"
