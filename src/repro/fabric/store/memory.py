"""The in-memory backend, the default world state.

A dict keyed by state key plus a sorted key list for range scans.  On top
of that it maintains the incremental XOR fingerprint of
:mod:`repro.fabric.store.base`, updated in O(1) per write.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterator, Optional

from ...common.types import Version
from .base import FINGERPRINT_BYTES, StateStore, VersionedValue, entry_digest


class MemoryStore(StateStore):
    """In-memory versioned world state (Fabric's LevelDB stand-in)."""

    backend = "memory"

    def __init__(self) -> None:
        self._data: dict[str, VersionedValue] = {}
        self._sorted_keys: list[str] = []
        self._fingerprint_acc = 0

    # -- reads -------------------------------------------------------------------

    def get(self, key: str) -> Optional[VersionedValue]:
        return self._data.get(key)

    def get_value(self, key: str) -> Optional[bytes]:
        entry = self._data.get(key)
        return entry.value if entry is not None else None

    def get_version(self, key: str) -> Optional[Version]:
        entry = self._data.get(key)
        return entry.version if entry is not None else None

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> tuple[str, ...]:
        return tuple(self._sorted_keys)

    def range_scan(self, start_key: str, end_key: str) -> Iterator[tuple[str, VersionedValue]]:
        index = bisect_left(self._sorted_keys, start_key)
        while index < len(self._sorted_keys):
            key = self._sorted_keys[index]
            if end_key and key >= end_key:
                break
            yield key, self._data[key]
            index += 1

    # -- writes ------------------------------------------------------------------

    def apply_write(self, key: str, value: bytes, version: Version, is_delete: bool = False) -> None:
        existing = self._data.get(key)
        if existing is not None:
            self._fingerprint_acc ^= entry_digest(key, existing.value, existing.version)
        if is_delete:
            if existing is not None:
                del self._data[key]
                index = bisect_left(self._sorted_keys, key)
                if index < len(self._sorted_keys) and self._sorted_keys[index] == key:
                    self._sorted_keys.pop(index)
            return
        if existing is None:
            insort(self._sorted_keys, key)
        self._data[key] = VersionedValue(value, version)
        self._fingerprint_acc ^= entry_digest(key, value, version)

    # -- snapshots ----------------------------------------------------------------

    def snapshot_versions(self) -> dict[str, Version]:
        return {key: entry.version for key, entry in self._data.items()}

    def fingerprint(self) -> bytes:
        return self._fingerprint_acc.to_bytes(FINGERPRINT_BYTES, "big")
