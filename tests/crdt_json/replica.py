"""The JSON CRDT as an operation-based replica: the engine's specification.

``repro.crdt.json`` ships only what FabricCRDT's committer runs, a plain
JSON document that ``merge_json`` writes in place: every peer merges the
same ordered block, so no operation ever crosses the network.  This module
keeps the operation-based CRDT of Kleppmann & Beresford on the tree the
committer's fold is specified by (``tree.TreeDocument``).  :class:`Replica`
writes through the tree's own primitives (``_apply_located`` and its effect
handlers, ``assign_in_place``, ``insert_in_place``) and adds what only
replication needs: cursors, operations, local edits that return the
operation describing their write, and an ``apply()`` that is

* **idempotent** — re-applying an operation ID is a no-op;
* **causal** — an operation whose dependencies are missing waits in a buffer
  until they arrive (the paper: "we queue the operation until all
  dependencies are applied");
* **commutative for concurrent operations** — deletes carry the presence IDs
  they observed, assigns the value IDs they overwrite, so arrival order does
  not change the converged state.

Like the engine, a replica keeps state, not history: the operations its
edits return are the caller's to keep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, NamedTuple, Optional, Union

from repro.common.errors import CRDTError
from repro.common.serialization import to_bytes
from repro.crdt.json import OpId, key_step

from .tree import (
    CONTAINER_PAYLOADS,
    CursorError,
    ListNode,
    MapNode,
    Payload,
    PayloadKind,
    Slot,
    Trail,
    TreeDocument,
)


class CausalityError(CRDTError):
    """An operation's dependencies can never be satisfied."""


# -- cursors, mutations, operations ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MapStep:
    """Descend into the value bound to ``key`` of a map node."""

    key: str

    def __str__(self) -> str:
        return key_step(self.key)


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
        """The path text of content IDs, as the merge carries it down."""

        return str(self)


@dataclass(frozen=True, slots=True)
class AssignKey:
    """Assign ``payload`` to ``key`` of the map at the cursor, superseding
    the leaf values ``overwrites`` (its causal past); concurrent assigns
    survive side by side and conversion resolves them."""

    key: str
    payload: Payload
    overwrites: frozenset[OpId] = field(default_factory=frozenset)


@dataclass(frozen=True, slots=True)
class InsertAfter:
    """Insert after element ``anchor`` (``None``: at the head) of the list at
    the cursor; the new element's ID is the operation's own."""

    anchor: Union[OpId, None]
    payload: Payload


@dataclass(frozen=True, slots=True)
class DeleteKey:
    """Delete ``key`` from the map at the cursor (observed-remove)."""

    key: str
    observed: frozenset[OpId]


@dataclass(frozen=True, slots=True)
class DeleteElem:
    """Delete element ``element_id`` of the list at the cursor."""

    element_id: OpId
    observed: frozenset[OpId]


Mutation = Union[AssignKey, InsertAfter, DeleteKey, DeleteElem]


@dataclass(frozen=True, slots=True)
class Operation:
    """One uniquely identified mutation: ``deps`` must be applied first (the
    paper's "dependency list"), ``cursor`` locates the container."""

    id: OpId
    deps: frozenset[OpId] = field(default_factory=frozenset)
    cursor: Cursor = field(default_factory=Cursor)
    mutation: Mutation = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.mutation is None:
            raise ValueError("operation requires a mutation")
        if self.id in self.deps:
            raise ValueError("operation cannot depend on itself")


class Located(NamedTuple):
    """Where an operation applies: found by one walk, then used in place."""

    node: Union[MapNode, ListNode]
    #: Every slot on the path with the branch taken through it.
    trail: tuple[tuple[Slot, str], ...]
    #: Element IDs of the list cells on the path: structural dependencies.
    path_ids: frozenset[OpId]


# -- the replica ------------------------------------------------------------------------


class Replica(TreeDocument):
    """A JSON document replicated by exchanging operations."""

    def __init__(self, actor: str = "doc") -> None:
        super().__init__(actor)
        self._buffer: dict[OpId, Operation] = {}  # waiting for their deps

    @property
    def pending_count(self) -> int:
        return len(self._buffer)

    def apply(self, operation: Operation) -> bool:
        """Apply (or buffer) one operation: ``True`` if it executed now,
        ``False`` if it was a duplicate or went to the causal buffer."""

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

    @staticmethod
    def _delete_at(slot: Optional[Slot], op_id: OpId, observed: frozenset[OpId]) -> None:
        if slot is None:
            return  # deleting a never-seen key or element is a no-op
        slot.presence -= observed
        for removed in observed:
            slot.leaf_values.pop(removed, None)

    # -- the engine's in-place writes, then whatever they unblocked -------------------

    def assign_in_place(self, trail: Trail, slot: Slot, payload: Payload) -> OpId:
        op_id = super().assign_in_place(trail, slot, payload)
        self._drain_buffer()
        return op_id

    def insert_in_place(
        self, trail: Trail, node: ListNode, anchor: Optional[OpId], payload: Payload,
        op_id: Optional[OpId] = None,
    ) -> OpId:
        op_id = super().insert_in_place(trail, node, anchor, payload, op_id)
        self._drain_buffer()
        return op_id

    # -- local edits: write, then describe the write as an operation ----------------------

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
        """Insert into the list at ``cursor`` after ``anchor`` (None = head);
        ``op_id`` names the element, as in ``insert_in_place``."""

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


def replicate(operations: Iterable[Operation], actor: str) -> Replica:
    """A fresh replica: a new document with ``operations`` applied."""

    replica = Replica(actor)
    replica.apply_all(operations)
    replica.require_quiescent()
    return replica


# -- the wire form: canonical bytes, for digests ----------------------------------------


def _ids(ids: Iterable[OpId]) -> list[str]:
    return sorted(str(op_id) for op_id in ids)


def _payload_dict(payload: Payload) -> dict:
    if payload.kind is PayloadKind.LEAF:
        return {"kind": payload.kind.value, "leaf": payload.leaf}
    return {"kind": payload.kind.value}


def _mutation_dict(mutation: Mutation) -> dict:
    if isinstance(mutation, AssignKey):
        payload = _payload_dict(mutation.payload)
        return {"type": "assign", "key": mutation.key, "payload": payload,
                "overwrites": _ids(mutation.overwrites)}
    if isinstance(mutation, InsertAfter):
        anchor = None if mutation.anchor is None else str(mutation.anchor)
        return {"type": "insert", "anchor": anchor, "payload": _payload_dict(mutation.payload)}
    if isinstance(mutation, DeleteKey):
        return {"type": "delete-key", "key": mutation.key, "observed": _ids(mutation.observed)}
    return {"type": "delete-elem", "element": str(mutation.element_id),
            "observed": _ids(mutation.observed)}


def operations_to_bytes(operations: Iterable[Operation]) -> bytes:
    """Canonical bytes of an operation list: every field of every operation,
    in order (what ``test_engine_pinned.py`` digests)."""

    return to_bytes([
        {
            "id": str(op.id),
            "deps": _ids(op.deps),
            "cursor": [
                {"map": step.key} if isinstance(step, MapStep) else {"list": str(step.element_id)}
                for step in op.cursor.steps
            ],
            "mutation": _mutation_dict(op.mutation),
        }
        for op in operations
    ])
