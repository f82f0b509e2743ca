"""The persistent backend: world state in a single SQLite file.

``SqliteStore`` keeps the committed ``(key, value, version)`` entries in an
indexed key table and applies each block's :class:`~repro.fabric.store.
batch.WriteBatch` inside one SQL transaction — the whole block becomes
visible atomically, or not at all (crash mid-batch rolls back).  This is
the reproduction's stand-in for Fabric's durable state databases: it
enables crash-and-reopen scenarios and state sizes that do not fit
comfortably in Python dicts.

Design notes:

* **Keys are stored as UTF-8 BLOBs.**  SQLite compares BLOBs with
  ``memcmp``, and UTF-8 byte order equals Unicode code-point order, so
  range scans return exactly the lexicographic key order the rest of the
  system (and the memory backend) assumes — including composite keys with
  embedded ``\\x00`` separators, which TEXT affinity handles poorly.
* **The committer's access is block-scoped.**  MVCC validation reads every
  version a block needs with :meth:`SqliteStore.get_versions` (``key IN
  (...)`` lookups), and a batch costs one lookup of the entries it
  replaces, one ``executemany`` for its puts and one for its deletes —
  Fabric's ``LoadCommittedVersions`` and bulk update, not a statement per
  read and two per write.
* **The fingerprint is persisted transactionally.**  The incremental XOR
  fingerprint (see :mod:`repro.fabric.store.base`) is updated in memory per
  write and written to the ``meta`` table in the same transaction as the
  batch, so a reopened store resumes with the exact digest it closed with.
* ``path=":memory:"`` gives a private, non-persistent database — useful to
  exercise the SQL code paths (benchmarks, CI) without touching disk.
"""

from __future__ import annotations

import sqlite3
from typing import Iterable, Iterator, Optional

from ...common.errors import StateError
from ...common.types import Version
from .base import FINGERPRINT_BYTES, StateStore, VersionedValue, entry_digest
from .batch import BatchWrite, WriteBatch

_SCHEMA = """
CREATE TABLE IF NOT EXISTS state (
    key   BLOB PRIMARY KEY,
    value BLOB NOT NULL,
    block INTEGER NOT NULL,
    txn   INTEGER NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS meta (
    name  TEXT PRIMARY KEY,
    value BLOB NOT NULL
);
"""

_FINGERPRINT_KEY = "fingerprint"

#: ``IN``-list widths of the bulk lookups (see ``SqliteStore._select_in``):
#: five statement shapes per lookup, whatever the block sizes; a lookup of
#: n keys takes at most n // 512 + 5 statements.
_IN_WIDTHS = (32, 64, 128, 256, 512)
_MIN_IN_WIDTH, _MAX_IN_WIDTH = _IN_WIDTHS[0], _IN_WIDTHS[-1]
_PLACEHOLDERS = {width: ", ".join("?" * width) for width in _IN_WIDTHS}


class SqliteStore(StateStore):
    """Persistent versioned world state backed by SQLite."""

    backend = "sqlite"

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        self._conn = sqlite3.connect(path, isolation_level=None)
        self._conn.executescript(_SCHEMA)
        self._closed = False
        self._fingerprint_acc = self._load_fingerprint()

    # -- lifecycle ----------------------------------------------------------------

    def _load_fingerprint(self) -> int:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE name = ?", (_FINGERPRINT_KEY,)
        ).fetchone()
        if row is None:
            # Fresh database — or one written before fingerprints existed:
            # fold the current content in so reopen always resumes correctly.
            accumulator = 0
            for key, entry in self.range_scan("", ""):
                accumulator ^= entry_digest(key, entry.value, entry.version)
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (name, value) VALUES (?, ?)",
                (_FINGERPRINT_KEY, accumulator.to_bytes(FINGERPRINT_BYTES, "big")),
            )
            return accumulator
        return int.from_bytes(bytes(row[0]), "big")

    def close(self) -> None:
        """Flush and close the database; the store becomes unusable."""

        if not self._closed:
            self._conn.close()
            self._closed = True

    def _require_open(self) -> None:
        if self._closed:
            raise StateError(f"state store {self.path!r} is closed")

    # -- reads -------------------------------------------------------------------

    @staticmethod
    def _key_blob(key: str) -> bytes:
        return key.encode("utf-8")

    def get(self, key: str) -> Optional[VersionedValue]:
        self._require_open()
        row = self._conn.execute(
            "SELECT value, block, txn FROM state WHERE key = ?",
            (self._key_blob(key),),
        ).fetchone()
        if row is None:
            return None
        return VersionedValue(bytes(row[0]), Version(row[1], row[2]))

    def __contains__(self, key: str) -> bool:
        self._require_open()
        row = self._conn.execute(
            "SELECT 1 FROM state WHERE key = ?", (self._key_blob(key),)
        ).fetchone()
        return row is not None

    def __len__(self) -> int:
        self._require_open()
        return self._conn.execute("SELECT COUNT(*) FROM state").fetchone()[0]

    def keys(self) -> tuple[str, ...]:
        self._require_open()
        return tuple(
            bytes(row[0]).decode("utf-8")
            for row in self._conn.execute("SELECT key FROM state ORDER BY key")
        )

    def range_scan(self, start_key: str, end_key: str) -> Iterator[tuple[str, VersionedValue]]:
        self._require_open()
        if end_key:
            cursor = self._conn.execute(
                "SELECT key, value, block, txn FROM state "
                "WHERE key >= ? AND key < ? ORDER BY key",
                (self._key_blob(start_key), self._key_blob(end_key)),
            )
        else:
            cursor = self._conn.execute(
                "SELECT key, value, block, txn FROM state WHERE key >= ? ORDER BY key",
                (self._key_blob(start_key),),
            )
        for row in cursor:
            yield (
                bytes(row[0]).decode("utf-8"),
                VersionedValue(bytes(row[1]), Version(row[2], row[3])),
            )

    def _select_in(self, columns: str, keys: Iterable[str]) -> list[tuple]:
        """``SELECT columns FROM state WHERE key IN (keys)``, in fixed shapes.

        The keys go in chunks whose widths are in :data:`_IN_WIDTHS`: the
        largest width that the keys left fill, and a last chunk of fewer
        than :data:`_MIN_IN_WIDTH` keys padded by repeating its last key
        (``IN`` is set membership, so a repeat matches its row once).  Every
        width is one prepared statement in the connection's cache; widths
        that tracked the key count exactly would each be another.  Padding
        costs SQLite about as much per value as a real key, so it stays
        below :data:`_MIN_IN_WIDTH` values per lookup.
        """

        blobs = [key.encode("utf-8") for key in keys]
        rows: list[tuple] = []
        start = 0
        while start < len(blobs):
            left = len(blobs) - start
            width = min(_MAX_IN_WIDTH, max(_MIN_IN_WIDTH, 1 << (left.bit_length() - 1)))
            chunk = blobs[start : start + width]
            start += width
            chunk += chunk[-1:] * (width - len(chunk))
            rows += self._conn.execute(
                f"SELECT {columns} FROM state WHERE key IN ({_PLACEHOLDERS[width]})", chunk
            ).fetchall()
        return rows

    def get_versions(self, keys: Iterable[str]) -> dict[str, Optional[Version]]:
        self._require_open()
        versions: dict[str, Optional[Version]] = dict.fromkeys(keys)
        for key_blob, block, txn in self._select_in("key, block, txn", versions):
            versions[key_blob.decode("utf-8")] = Version(block, txn)
        return versions

    # -- writes ------------------------------------------------------------------

    def apply_write(self, key: str, value: bytes, version: Version, is_delete: bool = False) -> None:
        self._apply([BatchWrite(key, value, version, is_delete)])

    def apply_batch(self, batch: WriteBatch) -> None:
        """One block, one SQL transaction: all-or-nothing visibility.

        Intermediate same-key writes are coalesced away — only the last
        write per key touches the database, which is also what Fabric's
        ``UpdateBatch`` commits.
        """

        self._apply(batch.coalesced())

    def _apply(self, writes: list[BatchWrite]) -> None:
        """Apply distinct-key writes in one SQL transaction: one lookup of
        the entries they replace, one statement for the puts, one for the
        deletes, and the fingerprint persisted beside them."""

        self._require_open()
        saved_fingerprint = self._fingerprint_acc
        self._conn.execute("BEGIN")
        try:
            for key_blob, value, block, txn in self._select_in(
                "key, value, block, txn", (write.key for write in writes)
            ):
                self._fingerprint_acc ^= entry_digest(
                    key_blob.decode("utf-8"), value, Version(block, txn)
                )
            puts, deletes = [], []
            for write in writes:
                key_blob = self._key_blob(write.key)
                if write.is_delete:
                    deletes.append((key_blob,))
                    continue
                version = write.version
                puts.append((key_blob, write.value, version.block_num, version.tx_num))
                self._fingerprint_acc ^= entry_digest(write.key, write.value, version)
            if puts:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO state (key, value, block, txn) VALUES (?, ?, ?, ?)",
                    puts,
                )
            if deletes:
                self._conn.executemany("DELETE FROM state WHERE key = ?", deletes)
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (name, value) VALUES (?, ?)",
                (_FINGERPRINT_KEY, self._fingerprint_acc.to_bytes(FINGERPRINT_BYTES, "big")),
            )
        except BaseException:
            self._conn.execute("ROLLBACK")
            self._fingerprint_acc = saved_fingerprint
            raise
        self._conn.execute("COMMIT")

    # -- snapshots ----------------------------------------------------------------

    def snapshot_versions(self) -> dict[str, Version]:
        self._require_open()
        return {
            bytes(row[0]).decode("utf-8"): Version(row[1], row[2])
            for row in self._conn.execute("SELECT key, block, txn FROM state ORDER BY key")
        }

    def fingerprint(self) -> bytes:
        self._require_open()
        return self._fingerprint_acc.to_bytes(FINGERPRINT_BYTES, "big")
