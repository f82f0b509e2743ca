"""The ``StateStore`` interface: what a world-state backend must provide.

Fabric treats the state database as a swappable component (LevelDB or
CouchDB behind one ``VersionedDB`` interface); this module is that seam for
the reproduction.  Every consumer of world state — the shim stub, MVCC
validation, the CRDT block merger, the gateway channel, the benchmark
harness — programs against :class:`StateStore`; the concrete backend
(:class:`~repro.fabric.store.memory.MemoryStore` or
:class:`~repro.fabric.store.sqlite.SqliteStore`) is chosen by
``NetworkConfig.state_backend``.

The interface covers the read paths chaincode uses (point reads, versioned
reads, key-range scans, Mango rich queries), the committer's block-scoped
access (one bulk version read for MVCC, batch application of
:class:`~repro.fabric.store.batch.WriteBatch` objects), and an
**incremental state fingerprint**: a 32-byte digest maintained write-by-write
that two stores share exactly when their full ``(key, version, value)``
content is identical.  Divergence checks compare fingerprints in O(1)
instead of materializing full snapshot dictionaries.

The fingerprint is an XOR-accumulated set hash: each committed entry
contributes ``SHA-256(key, version, value)`` and the store's fingerprint is
the XOR of all contributions.  XOR makes the digest order-independent (it
is a pure function of the current content, not the write history) and makes
updates O(1): overwriting a key XORs the old entry's digest out and the new
one in.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ...common.serialization import from_bytes
from ...common.types import Version
from .batch import WriteBatch
from .query import compile_selector

#: Digest width of the state fingerprint (SHA-256).
FINGERPRINT_BYTES = 32

#: Fingerprint of an empty store.
EMPTY_FINGERPRINT = bytes(FINGERPRINT_BYTES)


@dataclass(frozen=True)
class VersionedValue:
    """A committed value and the version of its committing transaction."""

    value: bytes
    version: Version


def entry_digest(key: str, value: bytes, version: Version) -> int:
    """The fingerprint contribution of one committed entry.

    Length-prefixed fields keep the encoding injective (no two distinct
    entries share a preimage through concatenation tricks).
    """

    key_bytes = key.encode("utf-8")
    material = b"%d\x00%s%d\x00%d\x00%s" % (
        len(key_bytes),
        key_bytes,
        version.block_num,
        version.tx_num,
        value,
    )
    return int.from_bytes(hashlib.sha256(material).digest(), "big")


class StateStore(ABC):
    """Abstract versioned world state: the committer's state database."""

    #: Short backend name ("memory", "sqlite") used in configs and reports.
    backend: str = "abstract"

    # -- reads -------------------------------------------------------------------

    @abstractmethod
    def get(self, key: str) -> Optional[VersionedValue]:
        """Committed ``(value, version)`` of ``key``, or ``None``."""

    def get_value(self, key: str) -> Optional[bytes]:
        entry = self.get(key)
        return entry.value if entry is not None else None

    def get_version(self, key: str) -> Optional[Version]:
        entry = self.get(key)
        return entry.version if entry is not None else None

    def get_versions(self, keys: Iterable[str]) -> dict[str, Optional[Version]]:
        """Committed version of every key in ``keys`` (``None`` when absent).

        The committer's bulk read — Fabric's ``LoadCommittedVersions``: MVCC
        validation asks once per block for every key its read sets name.
        The default asks :meth:`get_version` per key; SQL backends answer
        in a few statements.
        """

        return {key: self.get_version(key) for key in keys}

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    @abstractmethod
    def __len__(self) -> int:
        """Number of committed keys."""

    @abstractmethod
    def keys(self) -> tuple[str, ...]:
        """All committed keys in lexicographic order."""

    @abstractmethod
    def range_scan(self, start_key: str, end_key: str) -> Iterator[tuple[str, VersionedValue]]:
        """Keys in ``[start_key, end_key)`` in lexicographic order.

        Empty ``end_key`` means "to the end", matching the Fabric shim's
        ``GetStateByRange`` convention.
        """

    def rich_query(self, selector: dict, limit: Optional[int] = None) -> list[tuple[str, bytes]]:
        """CouchDB-Mango-style query over JSON values.

        Values that are not valid JSON objects are skipped, as CouchDB would
        not index them.  Results are key-ordered and optionally limited.
        The default implementation evaluates the compiled predicate over a
        full key-ordered scan, so results are identical on every backend.
        """

        predicate = compile_selector(selector)
        results: list[tuple[str, bytes]] = []
        for key, entry in self.range_scan("", ""):
            try:
                doc = from_bytes(entry.value)
            except Exception:
                continue
            if not isinstance(doc, dict):
                continue
            if predicate(doc):
                results.append((key, entry.value))
                if limit is not None and len(results) >= limit:
                    break
        return results

    # -- writes ------------------------------------------------------------------

    @abstractmethod
    def apply_write(self, key: str, value: bytes, version: Version, is_delete: bool = False) -> None:
        """Commit one write.  Deletes remove the key entirely (like Fabric)."""

    def apply_batch(self, batch: WriteBatch) -> None:
        """Apply one block's :class:`WriteBatch` atomically.

        The default applies writes sequentially (sufficient for in-process
        backends); durable backends override this with a real transaction.
        """

        for write in batch:
            self.apply_write(write.key, write.value, write.version, write.is_delete)

    # -- snapshots ----------------------------------------------------------------

    def snapshot_versions(self) -> dict[str, Version]:
        """Key -> version map (used by tests to diff states)."""

        return {key: entry.version for key, entry in self.range_scan("", "")}

    @abstractmethod
    def fingerprint(self) -> bytes:
        """32-byte incremental digest of the full committed content.

        Two stores have equal fingerprints iff their ``(key, version,
        value)`` content is identical (up to SHA-256 collisions) —
        regardless of backend and of the order writes were applied in.
        """

    def compute_fingerprint(self) -> bytes:
        """Recompute the fingerprint from scratch (integrity cross-check)."""

        accumulator = 0
        for key, entry in self.range_scan("", ""):
            accumulator ^= entry_digest(key, entry.value, entry.version)
        return accumulator.to_bytes(FINGERPRINT_BYTES, "big")

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources.  In-memory backends are a no-op."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} backend={self.backend} keys={len(self)}>"
