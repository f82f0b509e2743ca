"""Observed-remove set (OR-Set) with add-wins semantics.

Each ``add`` creates a unique tag; ``remove`` tombstones exactly the tags it
has *observed*.  A concurrent add therefore survives a concurrent remove
(add-wins), which is the behaviour Riak's sets and the paper's JSON-CRDT list
semantics build on.  Both mutators are δ-mutators underneath: an add's delta
is its one tag, a remove's the tombstones of the tags it observed.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..common.serialization import canonical_json
from .base import StateCRDT


class ORSet(StateCRDT):
    """State-based observed-remove set of JSON values."""

    type_name = "or-set"

    __slots__ = ("_adds", "_tombstones")

    def __init__(
        self,
        adds: dict[str, dict[str, Any]] | None = None,
        tombstones: dict[str, set[str]] | None = None,
    ) -> None:
        # element-key -> {tag: element}; tombstones: element-key -> {tag,...}
        self._adds: dict[str, dict[str, Any]] = {
            key: dict(tags) for key, tags in (adds or {}).items()
        }
        self._tombstones: dict[str, set[str]] = {
            key: set(tags) for key, tags in (tombstones or {}).items()
        }

    # -- mutation (functional) ------------------------------------------------

    def add(self, element: Any, tag: str) -> "ORSet":
        """Add ``element`` under a globally unique ``tag``.

        Callers supply the tag (e.g. a Lamport timestamp string) so that the
        type itself stays deterministic and easy to test.
        """

        return self.merge(self.add_delta(element, tag))

    def remove(self, element: Any) -> "ORSet":
        """Remove every currently-observed tag of ``element``."""

        return self.merge(self.remove_delta(element))

    def add_delta(self, element: Any, tag: str) -> "ORSet":
        """δ-mutator of :meth:`add`: a set holding the one new tag."""

        if not tag:
            raise ValueError("tag must be non-empty")
        return ORSet({canonical_json(element): {tag: element}})

    def remove_delta(self, element: Any) -> "ORSet":
        """δ-mutator of :meth:`remove`: tombstones for the observed tags only."""

        key = canonical_json(element)
        observed = self._adds.get(key)
        return ORSet(tombstones={key: set(observed)} if observed else None)

    # -- queries -------------------------------------------------------------

    def _live_tags(self, key: str) -> dict[str, Any]:
        dead = self._tombstones.get(key, set())
        return {tag: el for tag, el in self._adds.get(key, {}).items() if tag not in dead}

    def __contains__(self, element: Any) -> bool:
        return bool(self._live_tags(canonical_json(element)))

    def __iter__(self) -> Iterator[Any]:
        for key in sorted(self._adds):
            live = self._live_tags(key)
            if live:
                # All tags map to structurally identical elements.
                yield next(iter(live.values()))

    def __len__(self) -> int:
        return sum(1 for _ in self)

    # -- lattice -------------------------------------------------------------

    def merge(self, other: "ORSet") -> "ORSet":
        self._require_same_type(other)
        merged_adds: dict[str, dict[str, Any]] = {}
        for source in (self._adds, other._adds):
            for key, tags in source.items():
                merged_adds.setdefault(key, {}).update(tags)
        merged_tombs: dict[str, set[str]] = {}
        for source in (self._tombstones, other._tombstones):
            for key, tags in source.items():
                merged_tombs.setdefault(key, set()).update(tags)
        return ORSet(merged_adds, merged_tombs)

    def value(self) -> list:
        return list(self)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "adds": {
                key: {tag: el for tag, el in sorted(tags.items())}
                for key, tags in sorted(self._adds.items())
            },
            "tombstones": {
                key: sorted(tags) for key, tags in sorted(self._tombstones.items()) if tags
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ORSet":
        adds = payload["adds"]
        if not all(type(tagged) is dict for tagged in adds.values()):
            raise ValueError("or-set adds must map each element key to {tag: element}")
        return cls(adds, tombstones_from_dict(payload["tombstones"]))


def tombstones_from_dict(raw: dict) -> dict[str, set[str]]:
    """Observed-remove tombstones ``{key: [tag, ...]}`` as sets.

    Raises ``ValueError`` unless every tag is a string: tags are sorted when
    the state is written back, and a stray number among them would fail
    there, in the committer, instead of here.
    """

    tombstones = {key: set(tags) for key, tags in raw.items()}
    for tags in tombstones.values():
        if not all(type(tag) is str for tag in tags):
            raise ValueError(f"tombstone tags must be strings: {sorted(map(repr, tags))}")
    return tombstones
