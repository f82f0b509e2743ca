"""Operation identifiers for the JSON CRDT.

Two ID schemes coexist (see README "Merge engine"):

* **Clock IDs** — ``(counter, actor)`` Lamport timestamps ticked from a
  document's clock, as the paper describes (§5.2: "we ensure that the
  operation identifiers are globally unique by using an instance of a Lamport
  clock for each JSON CRDT instantiation").  They decide nothing a committer
  writes, so the committer's fold names no write with one; the tests' tree
  and replica do.
* **Content IDs** — for list-item inserts in dedup mode: the actor part is a
  hash of (path, canonical content, occurrence index), so the *same* item
  submitted by two concurrent read-modify-write transactions produces the
  *same* operation ID, and the second application is a no-op.  This is what
  makes the paper's Listing 1 → Listing 2 merge hold without duplicating
  items that both transactions carried over from their common read snapshot.
"""

from __future__ import annotations

import re
from typing import Any

from ...common.clock import LamportTimestamp
from ...common.hashing import sha256_hex
from ...common.serialization import canonical_json

#: Operation identifier: reuse Lamport timestamps, ordered by (counter, actor).
OpId = LamportTimestamp

#: Counter value used by all content-addressed IDs.  Using a constant keeps
#: content IDs mutually ordered by their hash only (deterministic, arbitrary),
#: while clock IDs from live editing always dominate or interleave by counter.
CONTENT_COUNTER = 1


#: A map key that needs quoting in path text: one holding a step separator
#: (``.``, ``[``), JSON's own quote or escape (``"``, ``\\``), or a control
#: character — ``\x00`` separates the hashed fields of a content ID.
_NEEDS_QUOTING = re.compile(r'[.\["\\\x00-\x1f]')


def key_step(key: str) -> str:
    """The path text of a step through map key ``key``.

    ``.key``, or ``."key"`` (JSON-quoted) when the key holds a character
    that would let two paths share a text: unquoted, the key ``"a.b"`` and
    the path ``a`` → ``b`` would both read ``$.a.b``.
    """

    return f".{canonical_json(key)}" if _NEEDS_QUOTING.search(key) else f".{key}"


def content_id(path_repr: str, content: Any, occurrence: int) -> OpId:
    """Deterministic, content-addressed operation ID for a list item.

    ``path_repr``   textual form of the cursor path to the containing list;
    ``content``     the JSON value of the item;
    ``occurrence``  0-based index among *identical* items within one incoming
                    value, so ``["a", "a"]`` yields two distinct IDs.
    """

    return content_id_of_canonical(path_repr, canonical_json(content), occurrence)


def content_id_of_canonical(path_repr: str, canonical: str, occurrence: int) -> OpId:
    """:func:`content_id` for content already in canonical JSON text."""

    if occurrence < 0:
        raise ValueError("occurrence must be non-negative")
    return OpId(CONTENT_COUNTER, content_actor(path_repr, canonical, occurrence))


def content_actor(path_repr: str, canonical: str, occurrence: int) -> str:
    """The actor part of a content ID: ``h:`` and 24 hex digits of the hash."""

    material = f"{path_repr}\x00{canonical}\x00{occurrence}"
    return "h:" + sha256_hex(material.encode("utf-8"))[:24]


def is_content_id(op_id: OpId) -> bool:
    """True if this ID came from :func:`content_id`."""

    return op_id.actor.startswith("h:")
