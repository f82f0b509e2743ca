"""Observed-remove map (OR-Map), the Riak-DT-style composable dictionary.

Values are themselves state-based CRDTs; updating a key merges into the
nested CRDT, removing a key tombstones the *observed* causal context so that
a concurrent update resurrects the entry (observed-remove semantics).  This
is the "map CRDT" the paper lists as future work (§9).
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..common.errors import MergeTypeError
from .base import StateCRDT, tombstones_from_dict
from .registry import crdt_from_dict_envelope, crdt_to_dict_envelope


class ORMap(StateCRDT):
    """State-based map from string keys to nested CRDT values.

    Per-key add-tags mirror the OR-Set construction: each ``put`` under a
    fresh tag, ``remove`` tombstones observed tags.  A key is visible while
    it has at least one live tag; its value is the merge of all live tags'
    values (plus surviving nested state).
    """

    type_name = "or-map"

    __slots__ = ("_entries", "_tombstones")

    def __init__(
        self,
        entries: dict[str, dict[str, StateCRDT]] | None = None,
        tombstones: dict[str, set[str]] | None = None,
    ) -> None:
        self._entries: dict[str, dict[str, StateCRDT]] = {
            key: dict(tagged) for key, tagged in (entries or {}).items()
        }
        self._tombstones: dict[str, set[str]] = {
            key: set(tags) for key, tags in (tombstones or {}).items()
        }

    # -- mutation (functional) ---------------------------------------------------

    def put(self, key: str, value: StateCRDT, tag: str) -> "ORMap":
        """Bind ``key`` to ``value`` under unique ``tag``."""

        if not tag:
            raise ValueError("tag must be non-empty")
        new = ORMap(self._entries, self._tombstones)
        new._entries.setdefault(key, {})[tag] = value
        return new

    def update(self, key: str, value: StateCRDT, tag: str) -> "ORMap":
        """Merge ``value`` into the key's current value under a fresh tag."""

        current = self.get(key)
        if current is not None:
            value = current.merge(value)  # type: ignore[arg-type]
        return self.put(key, value, tag)

    def remove(self, key: str) -> "ORMap":
        new = ORMap(self._entries, self._tombstones)
        observed = set(new._entries.get(key, {}))
        if observed:
            new._tombstones.setdefault(key, set()).update(observed)
        return new

    # -- queries ---------------------------------------------------------------

    def _live_tags(self, key: str) -> dict[str, StateCRDT]:
        dead = self._tombstones.get(key, set())
        return {
            tag: value
            for tag, value in self._entries.get(key, {}).items()
            if tag not in dead
        }

    def get(self, key: str) -> Optional[StateCRDT]:
        live = self._live_tags(key)
        if not live:
            return None
        result: Optional[StateCRDT] = None
        for _, value in sorted(live.items()):
            result = value if result is None else result.merge(value)
        return result

    def __contains__(self, key: str) -> bool:
        return bool(self._live_tags(key))

    def keys(self) -> list[str]:
        return [key for key in sorted(self._entries) if key in self]

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self.keys())

    # -- lattice -------------------------------------------------------------------

    def merge(self, other: "ORMap") -> "ORMap":
        self._require_same_type(other)
        entries: dict[str, dict[str, StateCRDT]] = {}
        for source in (self._entries, other._entries):
            for key, tagged in source.items():
                bucket = entries.setdefault(key, {})
                for tag, value in tagged.items():
                    if tag in bucket:
                        if type(bucket[tag]) is not type(value):
                            raise MergeTypeError(
                                f"tag {tag!r} bound to different CRDT types"
                            )
                        bucket[tag] = bucket[tag].merge(value)
                    else:
                        bucket[tag] = value
        tombstones: dict[str, set[str]] = {}
        for source in (self._tombstones, other._tombstones):
            for key, tags in source.items():
                tombstones.setdefault(key, set()).update(tags)
        return ORMap(entries, tombstones)

    def value(self) -> dict:
        return {key: value.value() for key in self.keys() if (value := self.get(key))}

    # -- serialization ----------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "entries": {
                key: {tag: crdt_to_dict_envelope(value) for tag, value in sorted(tagged.items())}
                for key, tagged in sorted(self._entries.items())
            },
            "tombstones": {
                key: sorted(tags) for key, tags in sorted(self._tombstones.items()) if tags
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ORMap":
        entries = {
            key: {tag: crdt_from_dict_envelope(raw) for tag, raw in tagged.items()}
            for key, tagged in payload["entries"].items()
        }
        return cls(entries, tombstones_from_dict(payload["tombstones"]))
