"""Multi-value register: keeps *all* concurrent writes, like Dynamo siblings.

A write supersedes every value it has observed; merge keeps the union of
non-superseded writes.  Concurrency is tracked with version vectors.
"""

from __future__ import annotations

from typing import Any, Iterable

from .base import StateCRDT

VersionVector = dict[str, int]


def _dominates(a: VersionVector, b: VersionVector) -> bool:
    """True if vector ``a`` is causally >= ``b`` (componentwise)."""

    return all(a.get(actor, 0) >= count for actor, count in b.items())


class MVRegister(StateCRDT):
    """State-based multi-value register over JSON values."""

    type_name = "mv-register"

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[tuple[Any, VersionVector]] = ()) -> None:
        self._entries: list[tuple[Any, VersionVector]] = [
            (value, dict(vv)) for value, vv in entries
        ]

    def assign(self, value: Any, actor: str) -> "MVRegister":
        """Write ``value``, superseding all currently visible entries."""

        merged_vv: VersionVector = {}
        for _, vv in self._entries:
            for a, count in vv.items():
                merged_vv[a] = max(merged_vv.get(a, 0), count)
        merged_vv[actor] = merged_vv.get(actor, 0) + 1
        return MVRegister([(value, merged_vv)])

    def merge(self, other: "MVRegister") -> "MVRegister":
        self._require_same_type(other)
        candidates = self._entries + other._entries
        kept: list[tuple[Any, VersionVector]] = []
        seen: set = set()
        for i, (value, vv) in enumerate(candidates):
            superseded = False
            for j, (other_value, other_vv) in enumerate(candidates):
                if i == j:
                    continue
                if _dominates(other_vv, vv) and other_vv != vv:
                    superseded = True
                    break
            if superseded:
                continue
            # Drop exact structural duplicates only; two *different* values
            # under equal vectors stay as siblings (keeps merge commutative
            # even for states violating actor-uniqueness).
            from ..common.serialization import canonical_json

            fingerprint = canonical_json({"v": value, "vv": dict(sorted(vv.items()))})
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            kept.append((value, dict(vv)))
        return MVRegister(kept)

    def value(self) -> list:
        """All concurrent values, deterministically ordered."""

        from ..common.serialization import canonical_json

        return sorted((v for v, _ in self._entries), key=canonical_json)

    def to_dict(self) -> dict:
        from ..common.serialization import canonical_json

        entries = sorted(
            ({"value": v, "vv": dict(sorted(vv.items()))} for v, vv in self._entries),
            key=canonical_json,
        )
        return {"entries": entries}

    @classmethod
    def from_dict(cls, payload: dict) -> "MVRegister":
        entries = [(e["value"], e["vv"]) for e in payload["entries"]]
        for _, vv in entries:
            if type(vv) is not dict or not all(type(n) is int and n >= 0 for n in vv.values()):
                raise ValueError(f"a version vector maps actors to non-negative ints: {vv!r:.80}")
        return cls(entries)
