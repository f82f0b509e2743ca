"""Merging a plain JSON object into a document — the paper's Algorithm 2.

``merge_json(document, value)`` walks the incoming JSON object exactly as
Algorithm 2 does: for each key, extend the cursor; strings become assign
operations, lists and maps recurse.  Every generated operation chains its
dependency list to the previous one (the algorithm's ``dependencies.Add``
after each operation), is applied immediately, and is also returned so tests
can replicate the op stream to other documents.  The walk descends the value
and the document tree together: each level hands the next its
:class:`~repro.crdt.json.document.Located`, so no operation re-resolves its
cursor from the root.

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
from .cursor import Cursor, ListStep, MapStep
from .document import JsonDocument, Located
from .ids import content_id_of_canonical
from .mutation import CONTAINER_PAYLOADS, Payload
from .operation import Operation


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
) -> list[Operation]:
    """Merge a JSON object into ``document``; returns the operations applied.

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
) -> list[Operation]:
    """The apply half of ``merge_json``: ``value`` passed ``check_mergeable``."""

    ops: list[Operation] = []
    root = Cursor()
    _merge_map(document, root, "$", document.locate(root, "map"), value, ops, options)
    return ops


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
    cursor: Cursor,
    path: str,
    at: Located,
    mapping: Mapping[str, Any],
    ops: list[Operation],
    options: MergeOptions,
) -> None:
    """Merge ``mapping`` into the map at ``cursor``.

    ``path`` is ``cursor.path_repr()``, carried down the recursion a step at
    a time rather than rendered again for every list (content IDs hash it).
    """

    for key, value in mapping.items():
        # Algorithm 2's ``dependencies``: each operation depends on the last.
        deps = (ops[-1].id,) if ops else ()
        cls = type(value)
        kind = _EXACT_KINDS[cls] if cls in _EXACT_KINDS else _kind(value)
        if kind == "leaf":
            ops.append(document.assign(cursor, key, _coerce_leaf(value, options), deps, at))
            continue
        ops.append(document.assign_container(cursor, key, kind, deps, at))
        below = at.below(at.node.slots[key], kind)
        merge = _merge_map if kind == "map" else _merge_list
        cursor_below = cursor.extended(MapStep(key))
        merge(document, cursor_below, f"{path}.{key}", below, value, ops, options)


def _merge_list(
    document: JsonDocument,
    cursor: Cursor,
    path: str,
    at: Located,
    items: Sequence[Any],
    ops: list[Operation],
    options: MergeOptions,
) -> None:
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

        deps = (ops[-1].id,) if ops else ()
        operation = document.append(cursor, payload, elem_id, deps, at)
        ops.append(operation)
        if kind != "leaf":
            below = at.below(at.node.cells[operation.id].slot, kind, operation.id)
            merge = _merge_map if kind == "map" else _merge_list
            cursor_below = cursor.extended(ListStep(operation.id))
            path_below = f"{path}[{operation.id}]"  # the ListStep's text
            merge(document, cursor_below, path_below, below, item, ops, options)
