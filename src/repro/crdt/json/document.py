"""The JSON document a committer merges into: plain JSON and little else.

FabricCRDT's committer merges a block's values for one key into a fresh
document (or one seeded with the key's committed value), on one peer and in
block order, then commits plain JSON.  The Kleppmann–Beresford tree — slots
with presence sets and per-branch winners, Lamport ticks, RGA anchors — is
built for concurrent, out-of-order delivery between replicas, which this
document never sees.  Under ``merge_json``'s sequential writes four facts
hold, and they make the tree's metadata redundant:

1. a slot's winning branch is the branch of its latest direct write (each
   write is an assign under a fresh tick above everything below it, a merge
   descends only through the branch it just wrote, and a list cell is
   written once);
2. a leaf assign leaves exactly one leaf;
3. every insert anchors at the tail, so RGA order is insertion order;
4. every slot and cell is visible.

So :class:`JsonDocument` holds the plain value the tree renders to and only
what a sequential merge still needs: the containers a leaf↔container clash
shadowed (the tree keeps a slot's map and list children whichever branch
wins, and a later write of that kind continues them), the applied content
IDs (what ``dedup_identical`` means), and :class:`DocumentStats`.  The tree
itself is the tests' specification (``tests/crdt_json/tree.py``), and the
two engines must agree on every count, counter and committed byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterator, Union

from ...common.serialization import canonical_json, to_bytes
from .ids import CONTENT_COUNTER, OpId

#: A container of the plain value: what a map or a list renders to.
Container = Union[dict, list]


@dataclass(slots=True)
class DocumentStats:
    """Work counters used by the benchmark cost model.

    * ``ops_applied`` — operations executed against the document: one per
      assign and per insert a merge writes.
    * ``ops_buffered`` — operations that had to wait for dependencies: always
      0 here, since ``merge_json`` applies each write at once; the tests'
      operation-based replica counts what its causal buffer held.
    * ``nodes_created`` — slots, cells and containers materialized.
    * ``list_scan_steps`` — the modelled cost of resolving list orders and
      append anchors; this is the term that grows with document size and
      makes per-block merge cost superlinear (the effect behind Figure 3).
      It is a charge, not a count of cells this implementation visits: an
      insert pays a scan of the list for its anchor and makes a rebuild of
      the order due, which the next insert or rendering pays once more (see
      README "Merge engine").
    """

    ops_applied: int = 0
    ops_buffered: int = 0
    nodes_created: int = 0
    list_scan_steps: int = 0

    def snapshot(self) -> dict:
        return {
            "ops_applied": self.ops_applied,
            "ops_buffered": self.ops_buffered,
            "nodes_created": self.nodes_created,
            "list_scan_steps": self.list_scan_steps,
        }


class JsonDocument:
    """A JSON CRDT document as the committer merges it: a plain JSON object
    that ``merge_json`` writes in place."""

    __slots__ = ("value", "stats", "_applied", "_shadows", "_due", "_hidden")

    def __init__(self) -> None:
        #: The plain JSON object the document renders to, written in place.
        #: The document's own: read it, do not keep or change it.
        self.value: dict = {}
        self.stats = DocumentStats()
        #: The actors (``h:…``) of the applied content IDs.
        self._applied: set[str] = set()
        #: The containers a clash took out of the value, by the map holding
        #: the slot, the key and the container's type.
        self._shadows: dict[tuple[int, str, type], Container] = {}
        #: The lists whose order rebuild is due, by ``id``: those in the value
        #: (the next rendering pays their length), and those in a shadow.
        self._due: dict[int, list] = {}
        self._hidden: dict[int, list] = {}

    # -- introspection -------------------------------------------------------

    @property
    def applied_ids(self) -> frozenset[OpId]:
        """The content IDs of the list items merged (dedup mode only)."""

        return frozenset(OpId(CONTENT_COUNTER, actor) for actor in self._applied)

    # -- clashes -------------------------------------------------------------

    def _replace(self, target: dict, key: str, current: Any, kind: type) -> Container:
        """Make a ``kind`` container the winner of ``target[key]``, which holds
        ``current`` of another type: ``current`` goes to the shadows if it is
        a container, and a shadowed ``kind`` container comes back (new if the
        slot never held one)."""

        if type(current) is dict or type(current) is list:
            self._shadow(target, key, current)
        child = self._shadows.pop((id(target), key, kind), None)
        if child is None:
            child = kind()
            self.stats.nodes_created += 1
        else:
            self._move_due(child, self._hidden, self._due)
        target[key] = child
        return child

    def _shadow(self, target: dict, key: str, container: Container) -> None:
        self._shadows[(id(target), key, type(container))] = container
        self._move_due(container, self._due, self._hidden)

    @staticmethod
    def _move_due(container: Container, source: dict, dest: dict) -> None:
        for node in _lists_below(container):
            moved = source.pop(id(node), None)
            if moved is not None:
                dest[id(node)] = moved

    # -- reading ------------------------------------------------------------------

    def _render(self) -> None:
        """Charge what converting the tree to plain JSON pays: the due
        rebuild of every list in the value."""

        due = self._due
        if due:
            self.stats.list_scan_steps += sum(map(len, due.values()))
            due.clear()

    def to_plain(self) -> dict:
        """The paper's ``ConvertCRDTToDataType`` (Algorithm 1, line 20): the
        document as a plain JSON object, keys sorted — a copy, the caller's
        to keep or change."""

        self._render()
        return json.loads(canonical_json(self.value))

    def to_bytes(self) -> bytes:
        """Canonical bytes of :meth:`to_plain`, without the copy: what the
        committer writes."""

        self._render()
        return to_bytes(self.value)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(keys={len(self.value)}, items={len(self._applied)})"


def _lists_below(container: Container) -> Iterator[list]:
    """Every list in ``container``'s plain subtree, ``container`` included."""

    pending = [container]
    while pending:
        node = pending.pop()
        children = node.values() if type(node) is dict else node
        if type(node) is list:
            yield node
        pending.extend(child for child in children if type(child) in (dict, list))
