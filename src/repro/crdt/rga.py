"""Replicated growable array (RGA) — a list CRDT.

Elements are identified by unique Lamport timestamps.  Insertion is
*insert-after*: a new element names its left neighbour's ID; concurrent
inserts after the same neighbour are ordered by descending element ID, the
classic RGA rule, so all replicas converge to the same sequence.  Deletion
tombstones the element.

It is the character sequence inside :class:`~repro.crdt.text.TextDocument`.
No handle writes a bare RGA, so it has no entry in
:data:`~repro.crdt.registry.CRDT_TYPES` and a committer refuses an ``rga``
envelope like any unknown type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional

from ..common.clock import LamportTimestamp
from .base import StateCRDT

#: Sentinel ID for the virtual head element.
HEAD = LamportTimestamp(0, "")


@dataclass(frozen=True)
class RGAEntry:
    """One element cell: identity, payload, left-neighbour and liveness."""

    element_id: LamportTimestamp
    value: Any
    after: LamportTimestamp
    deleted: bool = False


class RGA(StateCRDT):
    """State-based formulation of RGA: the state is the set of all cells.

    Merging unions the cells (by element ID) and ORs the tombstones; the
    linear order is recomputed deterministically from the cell graph, so
    merge remains commutative/associative/idempotent.
    """

    type_name = "rga"

    __slots__ = ("_cells",)

    def __init__(self, cells: dict[LamportTimestamp, RGAEntry] | None = None) -> None:
        self._cells: dict[LamportTimestamp, RGAEntry] = dict(cells or {})

    # -- mutation (functional) -------------------------------------------------

    def insert_after(
        self,
        after: LamportTimestamp,
        element_id: LamportTimestamp,
        value: Any,
    ) -> "RGA":
        """Insert ``value`` with identity ``element_id`` after ``after``.

        ``after`` is :data:`HEAD` for a front insertion.  Inserting an ID that
        already exists is idempotent if the payload matches and an error
        otherwise (IDs must be globally unique).
        """

        existing = self._cells.get(element_id)
        if existing is not None:
            if existing.after == after and existing.value == value:
                return RGA(self._cells)
            raise ValueError(f"element id reused with different content: {element_id}")
        if after != HEAD and after not in self._cells:
            raise ValueError(f"unknown anchor element: {after}")
        cells = dict(self._cells)
        cells[element_id] = RGAEntry(element_id, value, after)
        return RGA(cells)

    def append(self, element_id: LamportTimestamp, value: Any) -> "RGA":
        """Insert at the end of the current visible sequence."""

        last = HEAD
        for entry in self._ordered_entries():
            last = entry.element_id
        return self.insert_after(last, element_id, value)

    def delete(self, element_id: LamportTimestamp) -> "RGA":
        entry = self._cells.get(element_id)
        if entry is None:
            raise ValueError(f"cannot delete unknown element: {element_id}")
        if entry.deleted:
            return RGA(self._cells)
        cells = dict(self._cells)
        cells[element_id] = RGAEntry(entry.element_id, entry.value, entry.after, True)
        return RGA(cells)

    # -- order ------------------------------------------------------------------

    def _ordered_entries(self) -> Iterator[RGAEntry]:
        """All cells (including tombstones) in converged document order."""

        children: dict[LamportTimestamp, list[RGAEntry]] = {}
        for entry in self._cells.values():
            children.setdefault(entry.after, []).append(entry)
        for siblings in children.values():
            # Concurrent inserts after the same anchor: newest ID first.
            siblings.sort(key=lambda e: e.element_id, reverse=True)

        # Depth-first emission: an element is followed by everything anchored
        # to it, which realises the RGA order.  Iterative to avoid recursion
        # limits on long documents.
        ordering: list[RGAEntry] = []
        stack: list[RGAEntry] = list(reversed(children.get(HEAD, [])))
        while stack:
            entry = stack.pop()
            ordering.append(entry)
            for child in reversed(children.get(entry.element_id, [])):
                stack.append(child)
        return iter(ordering)

    def __iter__(self) -> Iterator[Any]:
        for entry in self._ordered_entries():
            if not entry.deleted:
                yield entry.value

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def element_ids(self, include_deleted: bool = False) -> list[LamportTimestamp]:
        return [
            entry.element_id
            for entry in self._ordered_entries()
            if include_deleted or not entry.deleted
        ]

    def last_visible_id(self) -> Optional[LamportTimestamp]:
        last = None
        for entry in self._ordered_entries():
            if not entry.deleted:
                last = entry.element_id
        return last

    # -- lattice ------------------------------------------------------------------

    def merge(self, other: "RGA") -> "RGA":
        self._require_same_type(other)
        from ..common.errors import MergeTypeError

        cells = dict(self._cells)
        for element_id, entry in other._cells.items():
            mine = cells.get(element_id)
            if mine is None:
                cells[element_id] = entry
                continue
            if mine.value != entry.value or mine.after != entry.after:
                # Element IDs are globally unique by contract; two different
                # cells under one ID is a protocol violation, not a conflict
                # to resolve silently.
                raise MergeTypeError(f"element ID reused with different content: {element_id}")
            if entry.deleted and not mine.deleted:
                cells[element_id] = RGAEntry(mine.element_id, mine.value, mine.after, True)
        return RGA(cells)

    def value(self) -> list:
        return list(self)

    # -- serialization ---------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "cells": [
                {
                    "id": str(entry.element_id),
                    "value": entry.value,
                    "after": str(entry.after),
                    "deleted": entry.deleted,
                }
                for entry in sorted(self._cells.values(), key=lambda e: e.element_id)
            ]
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RGA":
        cells = {}
        for raw in payload["cells"]:
            element_id = LamportTimestamp.parse(raw["id"])
            cells[element_id] = RGAEntry(
                element_id,
                raw["value"],
                LamportTimestamp.parse(raw["after"]),
                bool(raw["deleted"]),
            )
        return cls(cells)
