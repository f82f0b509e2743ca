"""Document tree nodes: maps, lists, slots, and their metadata.

Structure follows Kleppmann & Beresford:

* A **map node** binds string keys to *slots*.
* A **list node** is an RGA sequence of *cells*; each cell owns a slot.
* A **slot** is where values live.  It can simultaneously hold a multi-value
  register of leaf strings, a child map, and a child list (concurrent
  operations may have written different types); conversion resolves the
  winning branch deterministically.  The slot's *presence set* records the
  IDs of all operations that asserted its existence — a slot (or cell) is
  visible while its presence set is non-empty, which gives observed-remove /
  add-wins deletion semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .ids import OpId


@dataclass(slots=True)
class DocumentStats:
    """Work counters used by the benchmark cost model.

    * ``ops_applied`` — operations executed against the document.
    * ``ops_buffered`` — operations that had to wait for dependencies: always
      0 here, since ``merge_json`` applies each write at once; the tests'
      operation-based replica counts what its causal buffer held.
    * ``nodes_created`` — slots/cells materialized.
    * ``list_scan_steps`` — the modelled cost of resolving list orders and
      append anchors; this is the term that grows with document size and
      makes per-block merge cost superlinear (the effect behind Figure 3).
      It is a charge, not a count of cells this implementation visits: see
      :class:`ListNode` and README "Merge engine".
    """

    ops_applied: int = 0
    ops_buffered: int = 0
    nodes_created: int = 0
    list_scan_steps: int = 0

    def snapshot(self) -> dict:
        return {
            "ops_applied": self.ops_applied,
            "ops_buffered": self.ops_buffered,
            "nodes_created": self.nodes_created,
            "list_scan_steps": self.list_scan_steps,
        }


@dataclass(slots=True)
class Slot:
    """A value container: MVR leaf values + optional child map / child list."""

    presence: set[OpId] = field(default_factory=set)
    leaf_values: dict[OpId, str] = field(default_factory=dict)
    map_child: Optional["MapNode"] = None
    list_child: Optional["ListNode"] = None
    #: Highest op ID that wrote each branch — used to pick the winning branch
    #: at conversion time when concurrent ops assigned different types.  An
    #: operation passing through or writing the slot raises its entry
    #: (``JsonDocument._apply_located`` / ``_write_payload``).
    branch_ops: dict[str, OpId] = field(default_factory=dict)

    @property
    def visible(self) -> bool:
        return bool(self.presence)

    def winning_branch(self) -> Optional[str]:
        """The branch written by the highest op ID, or ``None`` if empty."""

        winner: Optional[str] = None
        winner_id: Optional[OpId] = None
        for branch, op_id in self.branch_ops.items():
            if branch == "leaf":
                live = bool(self.leaf_values)
            elif branch == "map":
                live = self.map_child is not None
            else:
                live = self.list_child is not None
            if live and (winner_id is None or op_id > winner_id):
                winner, winner_id = branch, op_id
        return winner

    def winning_leaf(self) -> Optional[str]:
        """Deterministic resolution of the multi-value register: highest ID."""

        if not self.leaf_values:
            return None
        winner = max(self.leaf_values)
        return self.leaf_values[winner]


@dataclass(slots=True)
class MapNode:
    """An unordered mapping of string keys to slots."""

    slots: dict[str, Slot] = field(default_factory=dict)

    def slot(self, key: str) -> Optional[Slot]:
        return self.slots.get(key)

    def ensure_slot(self, key: str, stats: DocumentStats) -> Slot:
        slot = self.slots.get(key)
        if slot is None:
            slot = Slot()
            self.slots[key] = slot
            stats.nodes_created += 1
        return slot

    def visible_keys(self) -> list[str]:
        return sorted(key for key, slot in self.slots.items() if slot.visible)


@dataclass(slots=True)
class Cell:
    """One RGA list element: identity, left anchor, and a slot of content."""

    element_id: OpId
    anchor: Optional[OpId]  # None anchors at the virtual head
    slot: Slot = field(default_factory=Slot)

    @property
    def visible(self) -> bool:
        return self.slot.visible


class ListNode:
    """An RGA-ordered sequence of cells.

    The converged order is: depth-first over the "inserted-after" forest,
    with concurrent siblings ordered by descending element ID — the classic
    RGA rule.  A cell anchored at the current tail has no sibling and no
    descendant to compete with, so a tail append extends the known order;
    any other insert drops it and the next reader rebuilds it.

    ``DocumentStats.list_scan_steps`` is the cost model's input and is
    charged by a fixed rule, whatever this class actually visits: an insert
    makes one rebuild of the order due, paid (``len`` cells) by the next
    reader, and finding the append anchor pays a scan of the whole order.
    """

    __slots__ = ("cells", "_order", "_rebuild_due")

    def __init__(self) -> None:
        self.cells: dict[OpId, Cell] = {}
        self._order: Optional[list[OpId]] = []
        self._rebuild_due = False

    def __contains__(self, element_id: OpId) -> bool:
        return element_id in self.cells

    def get(self, element_id: OpId) -> Optional[Cell]:
        return self.cells.get(element_id)

    def insert(self, cell: Cell, stats: DocumentStats) -> None:
        """Insert a new cell.  Re-inserting the same ID is the caller's
        idempotence responsibility (checked in the document layer)."""

        if cell.element_id in self.cells:
            raise ValueError(f"duplicate list element ID: {cell.element_id}")
        if cell.anchor is not None and cell.anchor not in self.cells:
            raise ValueError(f"unknown anchor: {cell.anchor}")
        self.cells[cell.element_id] = cell
        order = self._order
        if order is not None:
            if cell.anchor == (order[-1] if order else None):
                order.append(cell.element_id)
            else:
                self._order = None
        self._rebuild_due = True
        stats.nodes_created += 1

    def ordered_ids(self, stats: Optional[DocumentStats] = None) -> list[OpId]:
        """All element IDs (visible or not) in converged order.

        The list is the node's own: read it, do not keep or change it.
        """

        if self._order is None:
            self._order = self._rebuilt_order()
        if self._rebuild_due:
            self._rebuild_due = False
            if stats is not None:
                stats.list_scan_steps += len(self._order)
        return self._order

    def _rebuilt_order(self) -> list[OpId]:
        children: dict[Optional[OpId], list[OpId]] = {}
        for cell in self.cells.values():
            children.setdefault(cell.anchor, []).append(cell.element_id)
        for siblings in children.values():
            siblings.sort(reverse=True)
        order: list[OpId] = []
        stack: list[OpId] = list(reversed(children.get(None, [])))
        while stack:
            element_id = stack.pop()
            order.append(element_id)
            for child in reversed(children.get(element_id, [])):
                stack.append(child)
        return order

    def visible_cells(self, stats: Optional[DocumentStats] = None) -> Iterator[Cell]:
        cells = self.cells
        for element_id in self.ordered_ids(stats):
            cell = cells[element_id]
            if cell.slot.presence:
                yield cell

    def last_visible_id(self, stats: Optional[DocumentStats] = None) -> Optional[OpId]:
        """Element ID of the last visible cell (the append anchor).

        Found from the tail; charged to ``stats.list_scan_steps`` as the
        head-to-tail scan a plain RGA append pays, which drives the
        superlinear per-block merge cost (Figure 3's mechanism).
        """

        order = self.ordered_ids(stats)
        if stats is not None:
            stats.list_scan_steps += len(order)
        cells = self.cells
        for element_id in reversed(order):
            if cells[element_id].slot.presence:
                return element_id
        return None

    def __len__(self) -> int:
        return sum(1 for _ in self.visible_cells())
