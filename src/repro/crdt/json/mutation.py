"""Mutations: the modification an operation applies at its cursor target.

The supported JSON subset follows the paper (§5.2): map values are strings,
maps, or lists; list items are strings, maps, or lists.  Numbers/booleans
must be stringified by callers (the merge layer can do this automatically —
see ``CRDTConfig.stringify_scalars``).

Deletions carry the set of presence IDs they *observed* at generation time,
which makes application commutative with concurrent inserts/assigns
(add-wins, observed-remove — the standard Kleppmann semantics).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Union

from .ids import OpId


class PayloadKind(enum.Enum):
    """What a newly written slot contains."""

    LEAF = "leaf"          # a string value
    EMPTY_MAP = "map"      # a fresh empty map node (children added by later ops)
    EMPTY_LIST = "list"    # a fresh empty list node


@dataclass(frozen=True, slots=True)
class Payload:
    """The content carried by an assign/insert mutation."""

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


@dataclass(frozen=True, slots=True)
class AssignKey:
    """Assign ``payload`` to ``key`` of the map node at the cursor.

    ``overwrites`` lists the value-op IDs this assign supersedes (its causal
    past); concurrent assigns survive side by side in the multi-value
    register and are resolved at conversion time.
    """

    key: str
    payload: Payload
    overwrites: frozenset[OpId] = field(default_factory=frozenset)


@dataclass(frozen=True, slots=True)
class InsertAfter:
    """Insert a new element into the list node at the cursor.

    ``anchor`` is the element ID of the left neighbour (or ``None`` for a
    front insertion).  The new element's ID is the operation's own ID.
    """

    anchor: Union[OpId, None]
    payload: Payload


@dataclass(frozen=True, slots=True)
class DeleteKey:
    """Delete ``key`` from the map node at the cursor (observed-remove)."""

    key: str
    observed: frozenset[OpId]


@dataclass(frozen=True, slots=True)
class DeleteElem:
    """Delete the list element at the cursor's final list step."""

    element_id: OpId
    observed: frozenset[OpId]


Mutation = Union[AssignKey, InsertAfter, DeleteKey, DeleteElem]
