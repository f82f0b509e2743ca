"""A delegating :class:`StateStore` wrapper that measures backend latency.

``InstrumentedStore`` wraps any concrete backend and times its hot
operations — point reads, block-scoped version reads, single writes, and
block batch application —
into a telemetry registry's histograms, labelled by node and backend.
Everything else delegates untouched, including the incremental
fingerprint, so a wrapped store is observationally identical to the
backend it wraps (the parity and golden-fingerprint checks run through
it unchanged).

Timing uses ``perf_counter`` wall clock deliberately: store latency is a
real-machine cost, meaningful in both the DES (where it is *not* part of
simulated time — the cost model owns that) and the socket runtime.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Iterator, Optional

from ...common.types import Version
from .base import StateStore, VersionedValue
from .batch import WriteBatch

#: Latency buckets tuned for in-process stores: 100ns to 1s.
STORE_SECONDS_BUCKETS = (
    1e-7, 5e-7, 1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 1e-2, 0.1, 1.0
)


class InstrumentedStore(StateStore):
    """Wrap ``inner`` and record get/put/batch-apply latencies."""

    def __init__(self, inner: StateStore, telemetry, node: str = "") -> None:
        self.inner = inner
        self.backend = inner.backend
        self._labels = {"node": node, "backend": inner.backend}
        metrics = telemetry.metrics
        self._get_seconds = metrics.histogram(
            "repro_store_get_seconds",
            "Point-read latency of the state store",
            buckets=STORE_SECONDS_BUCKETS,
        )
        self._versions_seconds = metrics.histogram(
            "repro_store_get_versions_seconds",
            "Block-scoped MVCC version read latency (one observation per block)",
            buckets=STORE_SECONDS_BUCKETS,
        )
        self._put_seconds = metrics.histogram(
            "repro_store_put_seconds",
            "Single-write latency of the state store",
            buckets=STORE_SECONDS_BUCKETS,
        )
        self._batch_seconds = metrics.histogram(
            "repro_store_batch_apply_seconds",
            "Block WriteBatch application latency",
            buckets=STORE_SECONDS_BUCKETS,
        )
        self._batch_writes = metrics.counter(
            "repro_store_batch_writes_total",
            "Writes applied through block batches",
        )

    # -- timed hot paths ----------------------------------------------------------

    def get(self, key: str) -> Optional[VersionedValue]:
        started = perf_counter()
        try:
            return self.inner.get(key)
        finally:
            self._get_seconds.observe(perf_counter() - started, **self._labels)

    def apply_write(
        self, key: str, value: bytes, version: Version, is_delete: bool = False
    ) -> None:
        started = perf_counter()
        try:
            self.inner.apply_write(key, value, version, is_delete)
        finally:
            self._put_seconds.observe(perf_counter() - started, **self._labels)

    def get_versions(self, keys: Iterable[str]) -> dict[str, Optional[Version]]:
        started = perf_counter()
        try:
            return self.inner.get_versions(keys)
        finally:
            self._versions_seconds.observe(perf_counter() - started, **self._labels)

    def apply_batch(self, batch: WriteBatch) -> None:
        started = perf_counter()
        try:
            self.inner.apply_batch(batch)
        finally:
            self._batch_seconds.observe(perf_counter() - started, **self._labels)
            self._batch_writes.inc(len(batch), **self._labels)

    # -- pure delegation ----------------------------------------------------------

    def get_value(self, key: str) -> Optional[bytes]:
        entry = self.get(key)
        return entry.value if entry is not None else None

    def get_version(self, key: str) -> Optional[Version]:
        entry = self.get(key)
        return entry.version if entry is not None else None

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return len(self.inner)

    def keys(self) -> tuple[str, ...]:
        return self.inner.keys()

    def range_scan(
        self, start_key: str, end_key: str
    ) -> Iterator[tuple[str, VersionedValue]]:
        return self.inner.range_scan(start_key, end_key)

    def rich_query(self, selector: dict, limit: Optional[int] = None):
        return self.inner.rich_query(selector, limit)

    def snapshot_versions(self) -> dict[str, Version]:
        return self.inner.snapshot_versions()

    def fingerprint(self) -> bytes:
        return self.inner.fingerprint()

    def compute_fingerprint(self) -> bytes:
        return self.inner.compute_fingerprint()

    def close(self) -> None:
        self.inner.close()

    def __repr__(self) -> str:
        return f"<InstrumentedStore over {self.inner!r}>"
