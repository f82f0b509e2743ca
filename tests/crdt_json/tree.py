"""The Kleppmann–Beresford tree: the specification of the committer's fold.

``repro.crdt.json`` merges into plain JSON (``JsonDocument.value``), because
at a committer the tree's metadata decides nothing (see that module's
docstring).  This module is the tree engine it replaced, kept as the
specification the fold is checked against, and as the document the
operation-based replica (``replica.Replica``) subclasses:

* **payloads** — what an assign or an insert writes into a slot;
* **nodes** — a map binds keys to *slots*; a list is an RGA sequence of
  *cells*, each owning a slot; a slot holds a multi-value register of leaf
  strings, a child map and a child list at once (concurrent operations may
  have written different types), a *presence set* (the IDs that asserted it:
  visible while non-empty, observed-remove / add-wins deletion) and the
  highest ID that wrote each branch;
* **the document** — the tree, its Lamport clock, the applied IDs and the
  two in-place writes, ``assign_in_place`` and ``insert_in_place``, each
  naming its write with a tick (or a content ID) and applying its effect at
  a container the caller holds;
* **conversion** — the paper's ``ConvertCRDTToDataType``: a multi-value
  register resolves to the value of the highest ID, a slot holding branches
  of several types to the branch last written by the highest ID;
* **the in-place merge** — Algorithm 2 walking the value and the tree
  together, with the trail of ``(slot, branch)`` pairs it pushes entering a
  container and pops leaving it (``AddCursorElement`` /
  ``RemoveCursorElement``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from repro.common.clock import LamportClock
from repro.common.errors import CRDTError
from repro.common.serialization import canonical_json
from repro.crdt.json import DocumentStats, MergeOptions, OpId, check_mergeable, key_step
from repro.crdt.json.ids import content_id_of_canonical
from repro.crdt.json.merge import _EXACT_KINDS, _coerce_leaf, _kind


class CursorError(CRDTError):
    """A cursor path or insert anchor does not resolve against a tree."""


# -- payloads ------------------------------------------------------------------


class PayloadKind(enum.Enum):
    """What a newly written slot contains."""

    LEAF = "leaf"          # a string value
    EMPTY_MAP = "map"      # a fresh empty map node (children added by later ops)
    EMPTY_LIST = "list"    # a fresh empty list node


@dataclass(frozen=True, slots=True)
class Payload:
    """The content an assign or insert writes."""

    kind: PayloadKind
    leaf: str = ""

    def __post_init__(self) -> None:
        if self.kind is not PayloadKind.LEAF and self.leaf:
            raise ValueError("only LEAF payloads carry a value")

    @classmethod
    def string(cls, value: str) -> "Payload":
        if not isinstance(value, str):
            raise TypeError(f"leaf payloads must be strings, got {type(value).__name__}")
        return cls(PayloadKind.LEAF, value)

    @staticmethod
    def empty_map() -> "Payload":
        """The empty-map payload: one shared frozen instance."""

        return _EMPTY_MAP

    @staticmethod
    def empty_list() -> "Payload":
        """The empty-list payload: one shared frozen instance."""

        return _EMPTY_LIST


_EMPTY_MAP = Payload(PayloadKind.EMPTY_MAP)
_EMPTY_LIST = Payload(PayloadKind.EMPTY_LIST)

#: The payload creating an empty container, by kind (``"map"`` / ``"list"``).
CONTAINER_PAYLOADS: dict[str, Payload] = {"map": _EMPTY_MAP, "list": _EMPTY_LIST}


# -- nodes ---------------------------------------------------------------------


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


# -- the document --------------------------------------------------------------


#: The slots on the path to a container, each with the branch taken through
#: it: the list ``merge_json`` pushes entering a container and pops leaving it.
Trail = Sequence[tuple[Slot, str]]

#: An effect handler: ``(target, op_id, *effect)`` — see ``_apply_located``.
Handler = Callable[..., None]


class TreeDocument:
    """A JSON CRDT document as a tree, written in place by ``merge_json``."""

    def __init__(self, actor: str = "doc") -> None:
        self.root = MapNode()
        self.clock = LamportClock(actor)
        self.stats = DocumentStats()
        self._applied: set[OpId] = set()

    # -- introspection -------------------------------------------------------

    @property
    def applied_ids(self) -> frozenset[OpId]:
        return frozenset(self._applied)

    def has_applied(self, op_id: OpId) -> bool:
        return op_id in self._applied

    # -- applying an effect ------------------------------------------------------

    def _child(self, slot: Slot, branch: str) -> Union[MapNode, ListNode]:
        """The slot's child map or list, added if missing."""

        if branch == "map":
            if slot.map_child is None:
                slot.map_child = MapNode()
                self.stats.nodes_created += 1
            return slot.map_child
        if slot.list_child is None:
            slot.list_child = ListNode()
            self.stats.nodes_created += 1
        return slot.list_child

    def _apply_located(
        self, op_id: OpId, trail: Trail, apply: Handler, target: Any, *effect: Any
    ) -> None:
        """Apply one effect in place: the trail, then ``apply(target, op_id, *effect)``.

        ``trail`` is every slot on the path to the effect's container with the
        branch taken through it.  ``target`` is what the effect changes
        inside that container — the slot of an assign, the list of an
        insert — and ``apply`` its handler.  Every write to the document
        happens here and nowhere else.
        """

        for slot, via in trail:
            slot.presence.add(op_id)
            branch_ops = slot.branch_ops  # keep the highest ID per branch
            if via not in branch_ops or branch_ops[via] < op_id:
                branch_ops[via] = op_id
        apply(target, op_id, *effect)
        self._applied.add(op_id)
        self.stats.ops_applied += 1

    # -- effect handlers: (target, op_id, *effect) ----------------------------------

    def _assign_at(
        self, slot: Slot, op_id: OpId, payload: Payload, overwrites: Iterable[OpId]
    ) -> None:
        slot.presence.add(op_id)
        for overwritten in overwrites:
            slot.leaf_values.pop(overwritten, None)
        self._write_payload(slot, op_id, payload)

    def _insert_at(
        self, node: ListNode, op_id: OpId, payload: Payload, anchor: Optional[OpId]
    ) -> None:
        if op_id in node.cells:
            return  # content-addressed duplicate: idempotent by construction
        if anchor is not None and anchor not in node.cells:
            raise CursorError(f"insert anchor {anchor} missing")
        cell = Cell(element_id=op_id, anchor=anchor)
        cell.slot.presence.add(op_id)
        self._write_payload(cell.slot, op_id, payload)
        node.insert(cell, self.stats)

    def _write_payload(self, slot: Slot, op_id: OpId, payload: Payload) -> None:
        kind = payload.kind
        if kind is PayloadKind.LEAF:
            slot.leaf_values[op_id] = payload.leaf
            branch = "leaf"
        else:
            branch = "map" if kind is PayloadKind.EMPTY_MAP else "list"
            self._child(slot, branch)
        branch_ops = slot.branch_ops  # keep the highest ID per branch
        if branch not in branch_ops or branch_ops[branch] < op_id:
            branch_ops[branch] = op_id

    # -- writing in place ----------------------------------------------------------------
    #
    # A write whose container the caller already holds, with the trail to
    # it: ``merge_json`` walks the incoming value and this tree together and
    # writes each field here.

    def assign_in_place(self, trail: Trail, slot: Slot, payload: Payload) -> OpId:
        """Assign ``payload`` to ``slot`` (a map's, reached through ``trail``)
        under a fresh tick; returns the ID.  A leaf overwrites the leaves the
        slot holds, a container keeps them (the branch winner decides)."""

        overwrites = tuple(slot.leaf_values) if payload.kind is PayloadKind.LEAF else ()
        op_id = self.clock.tick()  # past every applied ID: never a duplicate
        self._apply_located(op_id, trail, self._assign_at, slot, payload, overwrites)
        return op_id

    def insert_in_place(
        self, trail: Trail, node: ListNode, anchor: Optional[OpId], payload: Payload,
        op_id: Optional[OpId] = None,
    ) -> OpId:
        """Insert ``payload`` after ``anchor`` (``None`` = head) into the list
        ``node``, reached through ``trail``; returns the new element's ID.

        ``op_id`` overrides the clock-generated ID (used by content-addressed
        merging); the clock is still ticked so later IDs dominate.
        """

        ticked = self.clock.tick()
        if op_id is None:
            op_id = ticked
        elif op_id in self._applied:
            return op_id  # already present (content-addressed duplicate)
        self._apply_located(op_id, trail, self._insert_at, node, payload, anchor)
        if op_id is not ticked:
            self.clock.merge(op_id)  # a named ID may lead the clock
        return op_id

    # -- reading ------------------------------------------------------------------

    def to_plain(self) -> dict:
        """Convert to a plain JSON object, all CRDT metadata stripped.

        This is the paper's ``ConvertCRDTToDataType`` (Algorithm 1, line 20);
        its rules are the conversion functions below.
        """

        return document_to_plain(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(actor={self.clock.actor!r}, ops={len(self._applied)})"


# -- conversion ----------------------------------------------------------------


#: Returned by slot conversion when a slot has no renderable content.
_EMPTY = object()


def document_to_plain(document: TreeDocument) -> dict:
    """Plain JSON object for the whole document."""

    return map_to_plain(document.root, document.stats)


def map_to_plain(node: MapNode, stats: Optional[DocumentStats] = None) -> dict:
    result: dict[str, Any] = {}
    for key in node.visible_keys():
        rendered = slot_to_plain(node.slots[key], stats)
        if rendered is not _EMPTY:
            result[key] = rendered
    return result


def list_to_plain(node: ListNode, stats: Optional[DocumentStats] = None) -> list:
    result: list[Any] = []
    for cell in node.visible_cells(stats):
        rendered = slot_to_plain(cell.slot, stats)
        if rendered is not _EMPTY:
            result.append(rendered)
    return result


def slot_to_plain(slot: Slot, stats: Optional[DocumentStats] = None) -> Any:
    branch = slot.winning_branch()
    if branch is None:
        return _EMPTY
    if branch == "leaf":
        return slot.winning_leaf()
    if branch == "map":
        assert slot.map_child is not None
        return map_to_plain(slot.map_child, stats)
    assert slot.list_child is not None
    return list_to_plain(slot.list_child, stats)


# -- the in-place merge --------------------------------------------------------


def merge_json(
    document: TreeDocument,
    value: Mapping[str, Any],
    options: MergeOptions = MergeOptions(),
) -> int:
    """Merge a JSON object into the tree ``document``; returns the number of
    operations applied (``repro.crdt.json.merge_json`` on the tree)."""

    check_mergeable(value, options)
    return _merge_map(document, [], "$", document.root, value, options)


def _merge_map(
    document: TreeDocument,
    trail: list[tuple[Slot, str]],
    path: str,
    node: MapNode,
    mapping: Mapping[str, Any],
    options: MergeOptions,
) -> int:
    """Merge ``mapping`` into ``node``, reached through ``trail``; returns
    the number of operations applied.

    ``path`` is the node's path text, carried down a step at a time for the
    content IDs of the lists below: ``$`` at the root, then ``key_step(key)``
    through a map key and ``[element-id]`` through a list element (the ID's
    ``counter@actor`` text).  ``trail`` is pushed entering a container and
    popped leaving it — the algorithm's ``AddCursorElement`` /
    ``RemoveCursorElement``.
    """

    applied = 0
    stats = document.stats
    for key, value in mapping.items():
        cls = type(value)
        kind = _EXACT_KINDS[cls] if cls in _EXACT_KINDS else _kind(value)
        slot = node.ensure_slot(key, stats)
        if kind == "leaf":
            leaf = value if cls is str else _coerce_leaf(value, options)
            document.assign_in_place(trail, slot, Payload.string(leaf))
            applied += 1
            continue
        document.assign_in_place(trail, slot, CONTAINER_PAYLOADS[kind])
        path_below = path + key_step(key)
        applied += 1 + _merge_below(document, trail, slot, kind, path_below, value, options)
    return applied


def _merge_list(
    document: TreeDocument,
    trail: list[tuple[Slot, str]],
    path: str,
    node: ListNode,
    items: Sequence[Any],
    options: MergeOptions,
) -> int:
    """Append ``items`` to ``node``, reached through ``trail`` (see
    :func:`_merge_map`); an item already merged here is skipped whole."""

    applied = 0
    stats = document.stats
    occurrences: dict[str, int] = {}
    for item in items:
        cls = type(item)
        kind = _EXACT_KINDS[cls] if cls in _EXACT_KINDS else _kind(item)
        if kind == "leaf":
            item = _coerce_leaf(item, options)
            payload = Payload.string(item)
        else:
            payload = CONTAINER_PAYLOADS[kind]

        elem_id = None
        if options.dedup_identical:
            content_key = canonical_json(item)
            occurrence = occurrences.get(content_key, 0)
            occurrences[content_key] = occurrence + 1
            elem_id = content_id_of_canonical(path, content_key, occurrence)
            if document.has_applied(elem_id):
                # Identical item already merged at this path: idempotent skip,
                # including its entire subtree (identical by construction).
                continue

        anchor = node.last_visible_id(stats)
        elem_id = document.insert_in_place(trail, node, anchor, payload, elem_id)
        applied += 1
        if kind != "leaf":
            slot = node.cells[elem_id].slot
            path_below = f"{path}[{elem_id}]"
            applied += _merge_below(document, trail, slot, kind, path_below, item, options)
    return applied


def _merge_below(
    document: TreeDocument,
    trail: list[tuple[Slot, str]],
    slot: Slot,
    kind: str,
    path: str,
    value: Any,
    options: MergeOptions,
) -> int:
    """Merge ``value`` into ``slot``'s child map or list (``kind``), one
    step further down ``trail``."""

    trail.append((slot, kind))
    if kind == "map":
        applied = _merge_map(document, trail, path, slot.map_child, value, options)
    else:
        applied = _merge_list(document, trail, path, slot.list_child, value, options)
    trail.pop()
    return applied
