"""JSON CRDT (Kleppmann & Beresford, TPDS'17) — the paper's merge engine.

``merge_json`` (Algorithm 2) writes a JSON object into a :class:`JsonDocument`
in place, and ``JsonDocument.to_plain`` converts the result back.
"""

from .convert import document_to_plain, list_to_plain, map_to_plain, slot_to_plain
from .document import JsonDocument
from .genops import MAX_NESTING_DEPTH, MergeOptions, check_mergeable, merge_checked, merge_json
from .ids import CONTENT_COUNTER, OpId, content_id, is_content_id
from .mutation import Payload, PayloadKind
from .nodes import Cell, DocumentStats, ListNode, MapNode, Slot

__all__ = [
    "JsonDocument",
    "merge_json",
    "check_mergeable",
    "merge_checked",
    "MergeOptions",
    "MAX_NESTING_DEPTH",
    "OpId",
    "content_id",
    "is_content_id",
    "CONTENT_COUNTER",
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
]
