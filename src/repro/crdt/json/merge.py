"""Merging a plain JSON object into a document — the paper's Algorithm 2.

``merge_json(document, value)`` walks the incoming JSON object as Algorithm 2
does: for each key, strings are assigned, lists and maps recurse.  Each field
is written straight into the document's plain value (see
:mod:`repro.crdt.json.document` for why that is the tree's rendering): an
assign sets the key, an insert appends to the list.  Each write is one of
the algorithm's operations, and the merge returns how many it applied.  The
tree engine it replaced, and the operation-emitting transcription of the
algorithm, are the tests' specification (``tests/crdt_json/tree.py``,
``reference.py``, over the operation-based replica in ``replica.py``).

Two behaviours are configurable (README "Merge engine"):

* ``dedup_identical`` — list items are content-addressed: an item's ID hashes
  the path text of its list, its canonical JSON and its occurrence index
  among identical items of the same incoming value, so an item merged before
  at the same path is skipped whole.  This reproduces Listing 1 → Listing 2
  and prevents duplicate amplification when concurrent read-modify-write
  transactions both carry items from a common read snapshot.  The path text
  is ``$`` at the root, then :func:`~repro.crdt.json.ids.key_step` through a
  map key and ``[element-id]`` (``counter@actor``) through a list element.
* ``stringify_scalars`` — numbers/booleans/None in the incoming JSON are
  converted to canonical strings (the paper: "when users require to use
  other datatypes, such as numbers or Boolean, they should convert the
  desired datatype to strings"); with the option off we raise
  :class:`UnsupportedValueError` instead, enforcing the paper's restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from ...common.errors import SerializationError, UnsupportedValueError
from ...common.serialization import canonical_json
from .document import JsonDocument
from .ids import CONTENT_COUNTER, content_actor, key_step


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

    path = "$" if options.dedup_identical else None
    applied = _merge_map(document, path, document.value, value, options)
    document.stats.ops_applied += applied
    return applied


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


#: ``dict.get``'s answer for a key the map does not hold.
_MISSING = object()


def _merge_map(
    document: JsonDocument,
    path: Optional[str],
    target: dict,
    mapping: Mapping[str, Any],
    options: MergeOptions,
) -> int:
    """Assign every field of ``mapping`` to ``target``; returns the number of
    operations applied.  ``path`` is ``target``'s path text, for the content
    IDs of the lists below (``None`` without ``dedup_identical``).

    A leaf replaces what the key holds.  A map or list merges into the
    container the key holds if it is of that kind; otherwise the document
    swaps the kinds (``JsonDocument._replace``)."""

    applied = len(mapping)  # one assign per key
    stats = document.stats
    for key, value in mapping.items():
        cls = type(value)
        kind = _EXACT_KINDS[cls] if cls in _EXACT_KINDS else _kind(value)
        current = target.get(key, _MISSING)
        if kind == "leaf":
            if current is _MISSING:
                stats.nodes_created += 1  # the slot
            elif type(current) is dict or type(current) is list:
                document._shadow(target, key, current)
            target[key] = value if cls is str else _coerce_leaf(value, options)
            continue
        container = dict if kind == "map" else list
        if type(current) is not container:
            if current is _MISSING:
                stats.nodes_created += 2  # the slot and its container
                current = target[key] = container()
            else:
                current = document._replace(target, key, current, container)
        below = None if path is None else path + key_step(key)
        merge = _merge_map if kind == "map" else _merge_list
        applied += merge(document, below, current, value, options)
    return applied


def _merge_list(
    document: JsonDocument,
    path: Optional[str],
    target: list,
    items: Sequence[Any],
    options: MergeOptions,
) -> int:
    """Append ``items`` to ``target`` (see :func:`_merge_map`); an item
    merged here before is skipped whole.

    Each append pays the modelled RGA work: a scan of the list for the
    append anchor, plus the order rebuild the previous insert made due."""

    applied = 0
    stats = document.stats
    due = document._due
    seen = document._applied
    occurrences: dict[str, int] = {}
    for item in items:
        cls = type(item)
        kind = _EXACT_KINDS[cls] if cls in _EXACT_KINDS else _kind(item)
        if kind == "leaf" and cls is not str:
            item = _coerce_leaf(item, options)
        if path is not None:
            content = canonical_json(item)
            occurrence = occurrences.get(content, 0)
            occurrences[content] = occurrence + 1
            actor = content_actor(path, content, occurrence)
            if actor in seen:
                continue  # identical item already merged at this path
            seen.add(actor)
        length = len(target)
        stats.list_scan_steps += length + length if id(target) in due else length
        due[id(target)] = target
        applied += 1
        if kind == "leaf":
            stats.nodes_created += 1  # the cell
            target.append(item)
            continue
        stats.nodes_created += 2  # the cell and its container
        child: Any = {} if kind == "map" else []
        target.append(child)
        below = None if path is None else f"{path}[{CONTENT_COUNTER}@{actor}]"
        merge = _merge_map if kind == "map" else _merge_list
        applied += merge(document, below, child, item, options)
    return applied
