"""The JSON CRDT document: operation application, buffering, local edits.

:class:`JsonDocument` is an operation-based CRDT.  ``apply()`` is:

* **idempotent** — re-applying an operation ID is a no-op;
* **causal** — operations whose dependencies are missing are buffered and
  drained once the dependencies arrive (the paper: "we queue the operation
  until all dependencies are applied");
* **commutative for concurrent operations** — deletions carry their observed
  presence IDs, assignments carry the value IDs they overwrite, so arrival
  order of concurrent operations does not affect the converged state.

Local editing (``assign`` / ``append`` / ``delete_key`` / ...) generates
operations against the current state and applies them immediately; callers
replicate the returned operations to other documents.  ``merge_json``
writes through the same primitives in place (``assign_in_place`` /
``insert_in_place``) and builds no operation at all.

The document keeps state, not history: once an operation's effect is in the
tree only its ID is remembered (idempotence and causal delivery need no
more), so the returned operations are the caller's to keep or drop.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence, Union

from ...common.clock import LamportClock
from ...common.errors import CausalityError, CursorError
from .cursor import Cursor, MapStep
from .ids import OpId
from .mutation import (
    CONTAINER_PAYLOADS,
    AssignKey,
    DeleteElem,
    DeleteKey,
    InsertAfter,
    Mutation,
    Payload,
    PayloadKind,
)
from .nodes import Cell, DocumentStats, ListNode, MapNode, Slot
from .operation import Operation


class Located(NamedTuple):
    """Where an operation applies: found by one walk, then used in place."""

    #: The container the mutation targets.
    node: Union[MapNode, ListNode]
    #: Every slot on the path with the branch taken through it; applying an
    #: operation adds its ID to each (presence and branch winner).
    trail: tuple[tuple[Slot, str], ...]
    #: Element IDs of the list cells on the path: structural dependencies.
    path_ids: frozenset[OpId]


#: The slots on the path to a container, each with the branch taken through
#: it: a :attr:`Located.trail`, or the list ``merge_json`` pushes and pops.
Trail = Sequence[tuple[Slot, str]]

#: An effect handler: ``(target, op_id, *effect)`` — see ``_apply_located``.
Handler = Callable[..., None]


class JsonDocument:
    """A replicated JSON document (op-based CRDT)."""

    def __init__(self, actor: str = "doc") -> None:
        self.root = MapNode()
        self.clock = LamportClock(actor)
        self.stats = DocumentStats()
        self._applied: set[OpId] = set()
        #: op buffered -> missing dependencies
        self._buffer: dict[OpId, Operation] = {}

    # -- introspection -------------------------------------------------------

    @property
    def applied_ids(self) -> frozenset[OpId]:
        return frozenset(self._applied)

    @property
    def pending_count(self) -> int:
        return len(self._buffer)

    def has_applied(self, op_id: OpId) -> bool:
        return op_id in self._applied

    # -- replication: applying remote operations ---------------------------------

    def apply(self, operation: Operation) -> bool:
        """Apply (or buffer) one operation.

        Returns ``True`` if the operation executed now, ``False`` if it was a
        duplicate or went to the causal buffer.
        """

        if operation.id in self._applied:
            return False  # idempotence: exactly-once effect
        if not operation.deps <= self._applied:
            self._buffer[operation.id] = operation
            self.stats.ops_buffered += 1
            return False
        self._execute(operation)
        self._drain_buffer()
        return True

    def apply_all(self, operations: Iterable[Operation]) -> int:
        """Apply many operations; returns how many executed (now or drained)."""

        before = len(self._applied)
        for operation in operations:
            self.apply(operation)
        return len(self._applied) - before

    def require_quiescent(self) -> None:
        """Raise :class:`CausalityError` if buffered operations remain."""

        if self._buffer:
            missing = {
                str(op.id): sorted(str(d) for d in op.deps - self._applied)
                for op in self._buffer.values()
            }
            raise CausalityError(f"operations stuck on missing deps: {missing}")

    def _drain_buffer(self) -> None:
        progressed = True
        while progressed and self._buffer:
            progressed = False
            for op_id in list(self._buffer):
                operation = self._buffer[op_id]
                if operation.deps <= self._applied:
                    del self._buffer[op_id]
                    self._execute(operation)
                    progressed = True

    # -- execution ------------------------------------------------------------

    def locate(self, cursor: Cursor, branch: str) -> Located:
        """Walk ``cursor`` once from the root to the container it names.

        ``branch`` is the kind of container the mutation targets (``"map"``
        for assign/delete-key, ``"list"`` for insert/delete-element).  Per
        the paper: "if the node ... is missing, we add the node"; the other
        half — "if the node already exists, we add the identifier of the
        current operation to the node" — is the trail, applied with the
        operation itself.
        """

        steps = cursor.steps
        if not steps and branch != "map":
            raise CursorError(f"{cursor}: the document root is a map, not a {branch}")
        node: Any = self.root
        trail: list[tuple[Slot, str]] = []
        path_ids: list[OpId] = []
        last = len(steps) - 1
        for index, step in enumerate(steps):
            if isinstance(step, MapStep):
                if not isinstance(node, MapNode):
                    raise CursorError(f"{cursor}: step {step} expects a map")
                slot = node.ensure_slot(step.key, self.stats)
            else:  # ListStep
                if not isinstance(node, ListNode):
                    raise CursorError(f"{cursor}: step {step} expects a list")
                cell = node.get(step.element_id)
                if cell is None:
                    raise CursorError(f"{cursor}: unknown list element {step.element_id}")
                slot = cell.slot
                path_ids.append(step.element_id)
            if index == last:
                via = branch
            else:
                via = "map" if isinstance(steps[index + 1], MapStep) else "list"
            node = self._child(slot, via)
            trail.append((slot, via))
        return Located(node, tuple(trail), frozenset(path_ids))

    def _child(self, slot: Slot, branch: str):
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

    def _execute(self, operation: Operation) -> None:
        """Apply a remote operation: walk to its container, find its target."""

        mutation = operation.mutation
        if isinstance(mutation, AssignKey):
            at = self.locate(operation.cursor, "map")
            slot = at.node.ensure_slot(mutation.key, self.stats)
            effect = (self._assign_at, slot, mutation.payload, mutation.overwrites)
        elif isinstance(mutation, InsertAfter):
            at = self.locate(operation.cursor, "list")
            effect = (self._insert_at, at.node, mutation.payload, mutation.anchor)
        elif isinstance(mutation, DeleteKey):
            at = self.locate(operation.cursor, "map")
            effect = (self._delete_at, at.node.slot(mutation.key), mutation.observed)
        elif isinstance(mutation, DeleteElem):
            at = self.locate(operation.cursor, "list")
            cell = at.node.get(mutation.element_id)
            effect = (self._delete_at, cell.slot if cell is not None else None, mutation.observed)
        else:  # pragma: no cover - exhaustive over Mutation union
            raise TypeError(f"unknown mutation: {mutation!r}")
        self._apply_located(operation.id, at.trail, *effect)
        self.clock.merge(operation.id)

    def _apply_located(
        self, op_id: OpId, trail: Trail, apply: Handler, target: Any, *effect: Any
    ) -> None:
        """Apply one effect in place: the trail, then ``apply(target, op_id, *effect)``.

        ``trail`` is every slot on the path to the effect's container with the
        branch taken through it (:attr:`Located.trail`).  ``target`` is what
        the effect changes inside that container — the slot of an assign or
        delete (``None`` for a delete of nothing), the list of an insert —
        and ``apply`` its handler.  Remote operations, local edits and
        ``merge_json`` all change the document here and nowhere else.
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

    @staticmethod
    def _delete_at(slot: Optional[Slot], op_id: OpId, observed: frozenset[OpId]) -> None:
        if slot is None:
            return  # deleting a never-seen key or element is a no-op
        slot.presence -= observed
        for removed in observed:
            slot.leaf_values.pop(removed, None)

    # -- writing in place ----------------------------------------------------------------
    #
    # A write whose container the caller already holds, with the trail to
    # it: ``merge_json`` walks the incoming value and this tree together and
    # writes each field here, building no operation — every peer merges the
    # same block, so a merge ships none.  The local assigns and inserts
    # below write through the same two calls, then describe the write as an
    # operation for replication.

    def assign_in_place(self, trail: Trail, slot: Slot, payload: Payload) -> OpId:
        """Assign ``payload`` to ``slot`` (a map's, reached through ``trail``)
        under a fresh tick; returns the ID.  A leaf overwrites the leaves the
        slot holds, a container keeps them (the branch winner decides)."""

        overwrites = tuple(slot.leaf_values) if payload.kind is PayloadKind.LEAF else ()
        op_id = self.clock.tick()  # past every applied ID: never a duplicate
        self._apply_located(op_id, trail, self._assign_at, slot, payload, overwrites)
        if self._buffer:
            self._drain_buffer()
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
        if self._buffer:
            self._drain_buffer()
        return op_id

    # -- local editing API ------------------------------------------------------------

    def assign(
        self, cursor: Cursor, key: str, value: str, deps: Optional[Iterable[OpId]] = None,
    ) -> Operation:
        """Assign string ``value`` at ``key`` of the map at ``cursor``."""

        at = self.locate(cursor, "map")
        slot = at.node.ensure_slot(key, self.stats)
        overwrites = frozenset(slot.leaf_values)
        payload = Payload.string(value)
        op_id = self.assign_in_place(at.trail, slot, payload)
        mutation = AssignKey(key, payload, overwrites)
        return self._operation(op_id, cursor, mutation, at, overwrites, deps)

    def assign_container(
        self, cursor: Cursor, key: str, kind: str, deps: Optional[Iterable[OpId]] = None,
    ) -> Operation:
        """Create an empty map (``kind='map'``) or list (``'list'``) at key."""

        at = self.locate(cursor, "map")
        slot = at.node.ensure_slot(key, self.stats)
        payload = CONTAINER_PAYLOADS[kind]
        op_id = self.assign_in_place(at.trail, slot, payload)
        return self._operation(op_id, cursor, AssignKey(key, payload), at, (), deps)

    def insert_after(
        self, cursor: Cursor, anchor: Optional[OpId], payload: Payload,
        op_id: Optional[OpId] = None,
        deps: Optional[Iterable[OpId]] = None,
    ) -> Operation:
        """Insert into the list at ``cursor`` after ``anchor`` (None = head).

        ``op_id`` names the element, as in :meth:`insert_in_place`.
        """

        return self._insert(cursor, self.locate(cursor, "list"), anchor, payload, op_id, deps)

    def append(
        self, cursor: Cursor, payload: Payload,
        op_id: Optional[OpId] = None,
        deps: Optional[Iterable[OpId]] = None,
    ) -> Operation:
        """Insert at the end of the visible list at ``cursor``."""

        at = self.locate(cursor, "list")
        anchor = at.node.last_visible_id(self.stats)
        return self._insert(cursor, at, anchor, payload, op_id, deps)

    def _insert(
        self, cursor: Cursor, at: Located, anchor: Optional[OpId], payload: Payload,
        op_id: Optional[OpId], deps: Optional[Iterable[OpId]],
    ) -> Operation:
        element_id = self.insert_in_place(at.trail, at.node, anchor, payload, op_id)
        refs = () if anchor is None else (anchor,)
        return self._operation(element_id, cursor, InsertAfter(anchor, payload), at, refs, deps)

    def delete_key(
        self, cursor: Cursor, key: str, deps: Optional[Iterable[OpId]] = None,
    ) -> Operation:
        at = self.locate(cursor, "map")
        slot = at.node.slot(key)
        observed = frozenset(slot.presence) if slot is not None else frozenset()
        op_id = self.clock.tick()
        self._apply_located(op_id, at.trail, self._delete_at, slot, observed)
        if self._buffer:
            self._drain_buffer()
        return self._operation(op_id, cursor, DeleteKey(key, observed), at, observed, deps)

    def delete_elem(
        self, cursor: Cursor, element_id: OpId, deps: Optional[Iterable[OpId]] = None,
    ) -> Operation:
        at = self.locate(cursor, "list")
        cell = at.node.get(element_id)
        slot = cell.slot if cell is not None else None
        observed = frozenset(slot.presence) if slot is not None else frozenset()
        op_id = self.clock.tick()
        self._apply_located(op_id, at.trail, self._delete_at, slot, observed)
        if self._buffer:
            self._drain_buffer()
        refs = observed | {element_id}
        return self._operation(op_id, cursor, DeleteElem(element_id, observed), at, refs, deps)

    @staticmethod
    def _operation(
        op_id: OpId,
        cursor: Cursor,
        mutation: Mutation,
        at: Located,
        refs: Iterable[OpId],
        deps: Optional[Iterable[OpId]],
    ) -> Operation:
        """The operation describing a local edit, for replication.

        ``refs`` are the operation IDs the mutation names.  An operation
        cannot execute before the cells its cursor traverses exist
        (``at.path_ids``), before its insert anchor exists, or before the
        values it overwrites / the presence IDs it observed were written;
        declaring these as dependencies makes out-of-order delivery safe.
        """

        full_deps = at.path_ids.union(refs, deps or ())
        if op_id in full_deps:
            full_deps = full_deps - {op_id}
        return Operation(op_id, full_deps, cursor, mutation)

    # -- reading ------------------------------------------------------------------

    def to_plain(self) -> dict:
        """Convert to a plain JSON object, all CRDT metadata stripped.

        This is the paper's ``ConvertCRDTToDataType`` (Algorithm 1, line 20);
        the full conversion rules live in :mod:`repro.crdt.json.convert`.
        """

        from .convert import document_to_plain

        return document_to_plain(self)

    def __repr__(self) -> str:
        return (
            f"JsonDocument(actor={self.clock.actor!r}, "
            f"ops={len(self._applied)}, pending={len(self._buffer)})"
        )


def replicate(operations: Iterable[Operation], actor: str) -> JsonDocument:
    """A fresh replica: a new document with ``operations`` applied.

    The operations are what the source's local edits returned; the source
    keeps no history of them.
    """

    replica = JsonDocument(actor)
    replica.apply_all(operations)
    replica.require_quiescent()
    return replica
