"""Payloads: what an assign or an insert writes into a slot.

The supported JSON subset follows the paper (§5.2): map values are strings,
maps, or lists; list items are strings, maps, or lists.  Numbers/booleans
must be stringified by callers (the merge layer can do this automatically —
see ``CRDTConfig.stringify_scalars``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class PayloadKind(enum.Enum):
    """What a newly written slot contains."""

    LEAF = "leaf"          # a string value
    EMPTY_MAP = "map"      # a fresh empty map node (children added by later ops)
    EMPTY_LIST = "list"    # a fresh empty list node


@dataclass(frozen=True, slots=True)
class Payload:
    """The content an assign or insert writes."""

    kind: PayloadKind
    leaf: str = ""

    def __post_init__(self) -> None:
        if self.kind is not PayloadKind.LEAF and self.leaf:
            raise ValueError("only LEAF payloads carry a value")

    @classmethod
    def string(cls, value: str) -> "Payload":
        if not isinstance(value, str):
            raise TypeError(f"leaf payloads must be strings, got {type(value).__name__}")
        return cls(PayloadKind.LEAF, value)

    @staticmethod
    def empty_map() -> "Payload":
        """The empty-map payload: one shared frozen instance."""

        return _EMPTY_MAP

    @staticmethod
    def empty_list() -> "Payload":
        """The empty-list payload: one shared frozen instance."""

        return _EMPTY_LIST


_EMPTY_MAP = Payload(PayloadKind.EMPTY_MAP)
_EMPTY_LIST = Payload(PayloadKind.EMPTY_LIST)

#: The payload creating an empty container, by kind (``"map"`` / ``"list"``).
CONTAINER_PAYLOADS: dict[str, Payload] = {"map": _EMPTY_MAP, "list": _EMPTY_LIST}
