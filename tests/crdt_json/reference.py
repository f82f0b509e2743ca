"""Algorithm 2 as an operation stream: the reference for the tree's merge.

``tree.merge_json`` writes each field of the incoming value straight into
the tree and builds no operation.  This module is the literal transcription
it replaced: it walks the value with a cursor and generates one operation
per field through the local-edit API of the operation-based replica
(``replica.Replica``: ``assign``, ``assign_container``, ``append`` with
content IDs), chaining every operation to the previous one (the algorithm's
``dependencies.Add``).  Applying those operations must leave exactly the
state ``tree.merge_json`` leaves, and replaying them on another replica is
how the tests replicate a merge.

:func:`document_state` captures everything a document holds, so two
documents can be compared field by field rather than by their plain JSON.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.common.serialization import canonical_json, to_bytes
from repro.crdt.json import MergeOptions, check_mergeable, content_id

from .replica import Cursor, ListStep, MapStep, Operation, Replica
from .tree import ListNode, MapNode, Payload, Slot, TreeDocument


def reference_merge(
    document: Replica, value: Mapping[str, Any], options: MergeOptions = MergeOptions()
) -> list[Operation]:
    """Merge ``value`` into ``document`` as Algorithm 2 does; returns the
    operations applied, in order."""

    check_mergeable(value, options)
    operations: list[Operation] = []
    _merge_map(document, Cursor(), value, operations, options)
    return operations


def _kind(value: Any) -> str:
    if isinstance(value, Mapping):
        return "map"
    if isinstance(value, (list, tuple)):
        return "list"
    return "leaf"


def _leaf(value: Any) -> str:
    # ``check_mergeable`` passed, so a non-string is a scalar to stringify.
    return value if isinstance(value, str) else canonical_json(value)


def _last_id(operations: list[Operation]) -> tuple:
    """``dependencies``: each operation depends on the one before it."""

    return (operations[-1].id,) if operations else ()


def _merge_map(
    document: Replica,
    cursor: Cursor,
    mapping: Mapping[str, Any],
    operations: list[Operation],
    options: MergeOptions,
) -> None:
    for key, value in mapping.items():
        kind = _kind(value)
        if kind == "leaf":
            operations.append(document.assign(cursor, key, _leaf(value), _last_id(operations)))
            continue
        operations.append(document.assign_container(cursor, key, kind, _last_id(operations)))
        merge = _merge_map if kind == "map" else _merge_list
        merge(document, cursor.extended(MapStep(key)), value, operations, options)


def _merge_list(
    document: Replica,
    cursor: Cursor,
    items: list,
    operations: list[Operation],
    options: MergeOptions,
) -> None:
    occurrences: dict[str, int] = {}
    for item in items:
        kind = _kind(item)
        if kind == "leaf":
            item = _leaf(item)
            payload = Payload.string(item)
        else:
            payload = Payload.empty_map() if kind == "map" else Payload.empty_list()
        element_id = None
        if options.dedup_identical:
            content = canonical_json(item)
            occurrence = occurrences.get(content, 0)
            occurrences[content] = occurrence + 1
            element_id = content_id(cursor.path_repr(), item, occurrence)
            if document.has_applied(element_id):
                continue  # merged before at this path: skip it and its subtree
        operation = document.append(cursor, payload, element_id, _last_id(operations))
        operations.append(operation)
        if kind != "leaf":
            merge = _merge_map if kind == "map" else _merge_list
            merge(document, cursor.extended(ListStep(operation.id)), item, operations, options)


# -- the whole state of a document ----------------------------------------------------


def _slot_state(slot: Slot, replica: bool) -> tuple:
    return (
        sorted(slot.presence),
        sorted(slot.leaf_values.items()),
        sorted(slot.branch_ops.items()),
        None if slot.map_child is None else _map_state(slot.map_child, replica),
        None if slot.list_child is None else _list_state(slot.list_child, replica),
    )


def _map_state(node: MapNode, replica: bool) -> list:
    return sorted((key, _slot_state(slot, replica)) for key, slot in node.slots.items())


def _list_state(node: ListNode, replica: bool) -> tuple:
    cells = sorted(
        (element_id, cell.anchor, _slot_state(cell.slot, replica))
        for element_id, cell in node.cells.items()
    )
    # The order is read without charging or clearing a rebuild; a source's
    # kept order and pending charge decide its future scan counts too.
    kept = None if replica else (node._order, node._rebuild_due)
    return cells, node._rebuilt_order(), kept


def document_state(document: TreeDocument, replica: bool = False) -> tuple:
    """Everything ``document`` holds: presence sets, leaf values, branch
    winners, cell anchors and order, applied IDs and the plain bytes; unless
    ``replica``, also the causal buffer (empty for a bare ``TreeDocument``),
    the clock, the work counters and each list's kept order.

    A replica built by ``apply()`` reaches the same tree by another route,
    so ``replica=True`` leaves out what depends on the route.  The plain
    bytes are taken last, since converting charges the work counters: take
    a document's state once, when it is done.
    """

    state: tuple = (_map_state(document.root, replica), sorted(document.applied_ids))
    if not replica:
        pending = document.pending_count if isinstance(document, Replica) else 0
        state += (pending, document.clock.time, document.stats.snapshot())
    return state + (to_bytes(document.to_plain()),)  # last: converting charges the counters
