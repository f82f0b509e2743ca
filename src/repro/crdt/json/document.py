"""The JSON CRDT document: the tree, its clock, and the writes a merge makes.

:class:`JsonDocument` holds the Kleppmann–Beresford tree (maps of slots,
RGA lists of cells) and the IDs of the operations whose effect is in it.
``merge_json`` changes it through two in-place writes, ``assign_in_place``
and ``insert_in_place``: each names the write with a Lamport tick (or a
content ID) and applies its effect at a container the caller already holds.

No operation is built or shipped.  FabricCRDT's committer builds each
document fresh (or from the key's committed value) inside one block merge,
and every peer merges the same ordered block, so the causal delivery an
operation-based CRDT needs (buffering, replay in any order) has no caller
here.  The tests keep that operation-based replica — apply, causal buffer,
cursors, local edits — as the specification the engine is checked against
(``tests/crdt_json/replica.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence, Union

from ...common.clock import LamportClock
from ...common.errors import CursorError
from .ids import OpId
from .mutation import Payload, PayloadKind
from .nodes import Cell, DocumentStats, ListNode, MapNode, Slot

#: The slots on the path to a container, each with the branch taken through
#: it: the list ``merge_json`` pushes entering a container and pops leaving it.
Trail = Sequence[tuple[Slot, str]]

#: An effect handler: ``(target, op_id, *effect)`` — see ``_apply_located``.
Handler = Callable[..., None]


class JsonDocument:
    """A JSON CRDT document, written in place by ``merge_json``."""

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
        the full conversion rules live in :mod:`repro.crdt.json.convert`.
        """

        from .convert import document_to_plain

        return document_to_plain(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(actor={self.clock.actor!r}, ops={len(self._applied)})"
