"""Merging a plain JSON object into a document — the paper's Algorithm 2.

``merge_json(document, value)`` walks the incoming JSON object as Algorithm 2
does: for each key, strings are assigned, lists and maps recurse.  The walk
descends the value and the document tree together, keeping the path as a
trail of ``(slot, branch)`` pairs that is pushed entering a container and
popped leaving it (the algorithm's ``AddCursorElement`` /
``RemoveCursorElement``), and writes each field straight into the slot or
list it holds, through the document's in-place writes.  Each field gets the
ID the algorithm's operation would get — a Lamport tick, or a content ID in
a list — but no operation is built: every peer runs Algorithm 1 over the
same ordered block, so a merge's operations are never shipped, and the
``dependencies`` list that chains them serves only their causal delivery.
The merge returns how many operations it applied.  The operation-emitting
transcription, ``dependencies`` chain included, is the tests' reference
(``tests/crdt_json/reference.py``, over the operation-based replica in
``tests/crdt_json/replica.py``), and the in-place merge must leave its
state exactly.

Two behaviours are configurable (README "Merge engine"):

* ``dedup_identical`` — list-item operation IDs are content-addressed, so an
  item that is byte-identical *at the same path with the same occurrence
  index* merges idempotently.  This reproduces Listing 1 → Listing 2 and
  prevents duplicate amplification when concurrent read-modify-write
  transactions both carry items from a common read snapshot.
* ``stringify_scalars`` — numbers/booleans/None in the incoming JSON are
  converted to canonical strings (the paper: "when users require to use
  other datatypes, such as numbers or Boolean, they should convert the
  desired datatype to strings"); with the option off we raise
  :class:`UnsupportedValueError` instead, enforcing the paper's restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ...common.errors import SerializationError, UnsupportedValueError
from ...common.serialization import canonical_json
from .document import JsonDocument
from .ids import content_id_of_canonical
from .mutation import CONTAINER_PAYLOADS, Payload
from .nodes import ListNode, MapNode, Slot


@dataclass(frozen=True)
class MergeOptions:
    """Tunable semantics for JSON merging (see module docstring)."""

    dedup_identical: bool = True
    stringify_scalars: bool = True


#: Deepest container nesting ``merge_json`` accepts (the top-level object is
#: level 1).  Merging and converting recurse once or twice per level, so a
#: value nested a few hundred levels would end in ``RecursionError`` inside
#: the committer; 64 leaves an order of magnitude of stack to spare and is
#: far beyond any document the paper's workloads (depth <= 6) produce.
MAX_NESTING_DEPTH = 64


def merge_json(
    document: JsonDocument,
    value: Mapping[str, Any],
    options: MergeOptions = MergeOptions(),
) -> int:
    """Merge a JSON object into ``document``; returns the number of
    operations applied.

    The paper's ``MergeCRDT(JsonCRDT, Json)``.  The top-level value must be a
    JSON object, as in Fabric chaincode values stored through CouchDB.  The
    whole value is checked before the first operation is applied, so a
    rejected value (:class:`UnsupportedValueError`) leaves no trace.
    """

    check_mergeable(value, options)
    return merge_checked(document, value, options)


def check_mergeable(value: Any, options: MergeOptions = MergeOptions()) -> None:
    """Raise :class:`UnsupportedValueError` unless ``merge_checked`` can merge
    ``value`` to the end — what a committer asks before it applies anything."""

    if _kind(value) != "map":
        raise UnsupportedValueError(
            f"top-level CRDT values must be JSON objects, got {type(value).__name__}"
        )
    _check_value(value, options)


def merge_checked(
    document: JsonDocument, value: Mapping[str, Any], options: MergeOptions
) -> int:
    """The apply half of ``merge_json``: ``value`` passed ``check_mergeable``."""

    return _merge_map(document, [], "$", document.root, value, options)


#: The kinds of the builtin types JSON decodes to.  The check and the merge
#: look a value's type up here inline and call :func:`_kind` only on a miss.
_EXACT_KINDS: dict[type, str] = {dict: "map", list: "list", str: "leaf"}


def _kind(value: Any) -> str:
    """``"map"``, ``"list"`` or ``"leaf"``: exact builtin types first, the
    abstract-base-class checks (an order of magnitude slower) only after."""

    cls = type(value)
    if cls in _EXACT_KINDS:
        return _EXACT_KINDS[cls]
    if isinstance(value, Mapping):
        return "map"
    if isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
        return "list"
    return "leaf"


def _check_value(value: Any, options: MergeOptions) -> None:
    """Reject a value the merge cannot finish: one iterative walk over it."""

    pending = [(value, "map", 1)]
    while pending:
        container, kind, depth = pending.pop()
        if depth > MAX_NESTING_DEPTH:
            raise UnsupportedValueError(
                f"value nested deeper than {MAX_NESTING_DEPTH} levels"
            )
        if kind == "map":
            for key in container:
                if not isinstance(key, str):
                    raise UnsupportedValueError(f"map keys must be strings, got {key!r}")
            children = container.values()
        else:
            children = container
        for child in children:
            cls = type(child)
            kind = _EXACT_KINDS[cls] if cls in _EXACT_KINDS else _kind(child)
            if kind != "leaf":
                pending.append((child, kind, depth + 1))
            elif cls is not str:
                _coerce_leaf(child, options)


def _coerce_leaf(value: Any, options: MergeOptions) -> str:
    if isinstance(value, str):
        return value
    if value is None or isinstance(value, (bool, int, float)):
        if not options.stringify_scalars:
            raise UnsupportedValueError(
                f"non-string scalar {value!r} (enable stringify_scalars or pre-convert)"
            )
        try:
            return canonical_json(value)
        except SerializationError as exc:  # NaN and the infinities
            raise UnsupportedValueError(f"unsupported JSON leaf: {value!r}") from exc
    raise UnsupportedValueError(f"unsupported JSON leaf: {type(value).__name__}")


def _merge_map(
    document: JsonDocument,
    trail: list[tuple[Slot, str]],
    path: str,
    node: MapNode,
    mapping: Mapping[str, Any],
    options: MergeOptions,
) -> int:
    """Merge ``mapping`` into ``node``, reached through ``trail``; returns
    the number of operations applied.

    ``path`` is the node's path text, carried down a step at a time for the
    content IDs of the lists below: ``$`` at the root, then ``.key`` through
    a map key and ``[element-id]`` through a list element (the ID's
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
        applied += 1 + _merge_below(document, trail, slot, kind, f"{path}.{key}", value, options)
    return applied


def _merge_list(
    document: JsonDocument,
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
    document: JsonDocument,
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
