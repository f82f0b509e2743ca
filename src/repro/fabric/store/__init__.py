"""Pluggable world-state backends (Fabric's swappable state database).

The package exposes one abstract interface, :class:`StateStore`, and two
implementations:

* :class:`MemoryStore` — an in-memory dict plus sorted keys, the default;
* :class:`SqliteStore` — a persistent, crash-and-reopen-able backend with
  an indexed key table and transactional block batches.

Blocks mutate state through block-scoped :class:`WriteBatch` objects, and
every store maintains an incremental content :meth:`~StateStore.fingerprint`
used for O(1) cross-peer divergence checks.  Pick a backend by name through
:func:`create_store` (wired to ``NetworkConfig.state_backend``).
"""

from __future__ import annotations

from typing import Optional

from ...common.config import STATE_BACKENDS
from ...common.errors import ConfigError
from .base import EMPTY_FINGERPRINT, FINGERPRINT_BYTES, StateStore, VersionedValue, entry_digest
from .batch import BatchWrite, WriteBatch
from .instrument import InstrumentedStore
from .memory import MemoryStore
from .query import compile_selector
from .sqlite import SqliteStore


def create_store(backend: str = "memory", path: Optional[str] = None) -> StateStore:
    """Build a state store by backend name.

    ``path`` only applies to ``sqlite`` (``None`` means a private in-memory
    database — the SQL code paths without the disk).
    """

    if backend == "memory":
        if path is not None:
            raise ConfigError("the memory backend takes no path")
        return MemoryStore()
    if backend == "sqlite":
        return SqliteStore(path if path is not None else ":memory:")
    raise ConfigError(
        f"unknown state backend {backend!r}; expected one of {', '.join(STATE_BACKENDS)}"
    )


__all__ = [
    "BatchWrite",
    "EMPTY_FINGERPRINT",
    "FINGERPRINT_BYTES",
    "InstrumentedStore",
    "MemoryStore",
    "STATE_BACKENDS",
    "SqliteStore",
    "StateStore",
    "VersionedValue",
    "WriteBatch",
    "compile_selector",
    "create_store",
    "entry_digest",
]
