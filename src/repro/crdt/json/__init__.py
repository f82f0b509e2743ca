"""JSON CRDT (Kleppmann & Beresford, TPDS'17) — the paper's merge engine.

``merge_json`` (Algorithm 2) writes a JSON object into a :class:`JsonDocument`
in place, and ``JsonDocument.to_plain`` / ``to_bytes`` read the result back.
"""

from .document import DocumentStats, JsonDocument
from .ids import CONTENT_COUNTER, OpId, content_id, is_content_id, key_step
from .merge import MAX_NESTING_DEPTH, MergeOptions, check_mergeable, merge_checked, merge_json

__all__ = [
    "JsonDocument",
    "DocumentStats",
    "merge_json",
    "check_mergeable",
    "merge_checked",
    "MergeOptions",
    "MAX_NESTING_DEPTH",
    "OpId",
    "content_id",
    "is_content_id",
    "key_step",
    "CONTENT_COUNTER",
]
