"""JSON CRDT (Kleppmann & Beresford, TPDS'17) — the paper's merge engine."""

from .convert import document_to_plain, list_to_plain, map_to_plain, slot_to_plain
from .cursor import Cursor, CursorBuilder, ListStep, MapStep, Step
from .document import JsonDocument, Located, replicate
from .genops import MAX_NESTING_DEPTH, MergeOptions, check_mergeable, merge_checked, merge_json
from .ids import CONTENT_COUNTER, OpId, content_id, is_content_id
from .mutation import (
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
from .serde import (
    operation_from_dict,
    operation_to_dict,
    operations_from_bytes,
    operations_to_bytes,
)

__all__ = [
    "JsonDocument",
    "replicate",
    "merge_json",
    "check_mergeable",
    "merge_checked",
    "MergeOptions",
    "MAX_NESTING_DEPTH",
    "Located",
    "Operation",
    "OpId",
    "content_id",
    "is_content_id",
    "CONTENT_COUNTER",
    "Cursor",
    "CursorBuilder",
    "MapStep",
    "ListStep",
    "Step",
    "AssignKey",
    "InsertAfter",
    "DeleteKey",
    "DeleteElem",
    "Mutation",
    "Payload",
    "PayloadKind",
    "MapNode",
    "ListNode",
    "Slot",
    "Cell",
    "DocumentStats",
    "document_to_plain",
    "map_to_plain",
    "list_to_plain",
    "slot_to_plain",
    "operation_to_dict",
    "operation_from_dict",
    "operations_to_bytes",
    "operations_from_bytes",
]
