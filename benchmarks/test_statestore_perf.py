"""Microbenchmarks of the state-store backends themselves.

Unlike the figure benchmarks (deterministic simulated experiments), these
measure the real CPU/SQL cost of the storage layer: bulk-loading keys,
range-scanning, and applying block-scoped write batches on both the memory
and the sqlite backend.  The measured rates are reported through
:class:`~repro.workload.reporter.JsonReporter` in the ``BENCH`` shape
(``bench-statestore.json``) so the backend trade-off is tracked alongside
the figure benchmarks.
"""

from __future__ import annotations

import os

import pytest

from repro.common.serialization import to_bytes
from repro.common.types import Version
from repro.fabric.store import WriteBatch, create_store
from repro.workload.metrics import BenchmarkResult
from repro.workload.reporter import JsonReporter
from repro.workload.runner import BenchmarkReport

#: Keys bulk-loaded / scanned per measurement.
BULK_KEYS = 5000
#: Blocks and writes-per-block for the batch-apply measurement.
BLOCKS, WRITES_PER_BLOCK = 50, 100

BACKENDS = ("memory", "sqlite")

#: Measured op rates accumulated across the module, emitted once at the end.
_RESULTS: list[BenchmarkResult] = []


def _record(label: str, ops: int, seconds: float) -> None:
    seconds = max(seconds, 1e-9)
    _RESULTS.append(
        BenchmarkResult(
            label=label,
            total_submitted=ops,
            successful=ops,
            failed=0,
            duration_s=seconds,
            throughput_tps=ops / seconds,
            avg_latency_s=seconds / ops,
        )
    )


@pytest.fixture(scope="module", autouse=True)
def emit_bench_json(tmp_path_factory):
    """Write the accumulated rates in the BENCH JSON shape on teardown.

    The file goes to ``$BENCH_STATESTORE_JSON`` when that is set (CI uploads
    it), else under pytest's temporary directory — never into the checkout.
    """

    yield
    if _RESULTS:
        path = os.environ.get("BENCH_STATESTORE_JSON") or str(
            tmp_path_factory.mktemp("bench") / "bench-statestore.json"
        )
        JsonReporter(path).emit(BenchmarkReport(results=list(_RESULTS)))


def bulk_batch(n_keys: int, block: int = 0) -> WriteBatch:
    batch = WriteBatch(block_number=block)
    for i in range(n_keys):
        batch.put(f"device-{i:07d}", to_bytes({"seq": i, "temp": i % 50}), Version(block, i))
    return batch


@pytest.mark.parametrize("backend", BACKENDS)
def test_bulk_load(benchmark, backend):
    """Load BULK_KEYS keys as one batch (populate-phase shape)."""

    def load():
        store = create_store(backend)
        store.apply_batch(bulk_batch(BULK_KEYS))
        return store

    store = benchmark.pedantic(load, rounds=3, iterations=1)
    assert len(store) == BULK_KEYS
    _record(f"{backend}-bulk-load", BULK_KEYS, benchmark.stats.stats.mean)
    store.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_range_scan(benchmark, backend):
    """Full ordered scan over BULK_KEYS keys (rebuild/query shape)."""

    store = create_store(backend)
    store.apply_batch(bulk_batch(BULK_KEYS))

    def scan():
        return sum(1 for _ in store.range_scan("", ""))

    count = benchmark.pedantic(scan, rounds=3, iterations=1)
    assert count == BULK_KEYS
    _record(f"{backend}-range-scan", BULK_KEYS, benchmark.stats.stats.mean)
    store.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_block_batch_apply(benchmark, backend):
    """Apply BLOCKS sequential block batches (the commit-path shape).

    Each block rewrites one hot key WRITES_PER_BLOCK-1 times (a conflicting
    workload's merged key) plus unique keys, exercising both coalescing and
    steady-state growth.
    """

    def commit_chain():
        store = create_store(backend)
        for block in range(BLOCKS):
            batch = WriteBatch(block_number=block)
            for tx in range(WRITES_PER_BLOCK - 1):
                batch.put("device-hot-0", to_bytes({"b": block, "t": tx}), Version(block, tx))
            batch.put(f"device-u{block}", to_bytes({"b": block}), Version(block, WRITES_PER_BLOCK - 1))
            store.apply_batch(batch)
        return store

    store = benchmark.pedantic(commit_chain, rounds=3, iterations=1)
    assert len(store) == BLOCKS + 1
    assert store.get_version("device-hot-0") == Version(BLOCKS - 1, WRITES_PER_BLOCK - 2)
    _record(
        f"{backend}-block-apply", BLOCKS * WRITES_PER_BLOCK, benchmark.stats.stats.mean
    )
    store.close()


def test_backends_agree_on_fingerprint():
    """The same batches yield the same content fingerprint on both backends."""

    stores = [create_store(backend) for backend in BACKENDS]
    for store in stores:
        store.apply_batch(bulk_batch(512))
    fingerprints = {store.fingerprint() for store in stores}
    assert len(fingerprints) == 1
    for store in stores:
        assert store.fingerprint() == store.compute_fingerprint()
        store.close()
