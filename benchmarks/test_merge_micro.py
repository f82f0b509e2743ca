"""Microbenchmarks of the JSON-CRDT merge engine itself.

Unlike the figure benchmarks (single deterministic runs of a simulated
experiment), these measure real CPU work with proper repetition: merging a
block of values into one document, encoding the value it commits, and
re-merging a value the document already holds.
"""

import pytest

from repro.common.config import CRDTConfig
from repro.core.jsonmerge import MergedKey, init_empty_crdt, merge_crdt
from repro.crdt.json import JsonDocument, merge_json
from repro.workload.iot import nested_payload, reading_payload


def merge_block(block_size: int, json_keys: int = 2, depth: int = 1) -> dict:
    config = CRDTConfig()

    def payload(sequence):
        if depth > 1:
            return nested_payload(json_keys, depth, 20, sequence)
        return reading_payload("dev", 20, sequence)

    merged = init_empty_crdt("dev", payload(0), actor="bench")
    for sequence in range(block_size):
        merge_crdt(merged, payload(sequence), config)
    return merged.document.to_plain()


@pytest.mark.parametrize("block_size", (25, 100, 400, 1000))
def test_merge_block_scaling(benchmark, block_size):
    """Per-block merge cost on one growing list.  1000 is the calibration's
    Figure-3 anchor block: the cost model charges it ~10^6 scan steps, the
    engine itself must stay near-linear (tail appends keep the order)."""

    plain = benchmark(merge_block, block_size)
    assert len(plain["tempReadings"]) == block_size


@pytest.mark.parametrize("keys,depth", ((2, 2), (6, 6)))
def test_merge_complexity_scaling(benchmark, keys, depth):
    plain = benchmark(merge_block, 25, keys, depth)
    assert len(plain) == keys


def test_merge_wallclock_benchmark_block(benchmark):
    """The JSON half of one ``local_crdt_mixed`` block (benchmarks/perf):
    15 records of 3 keys, depth 3, merged into one hot document."""

    plain = benchmark(merge_block, 15, 3, 3)
    assert [len(readings) for readings in plain.values()] == [15, 15, 15]


def test_committed_bytes(benchmark):
    """The committer's ``ConvertCRDTToDataType``: the merged document's
    canonical bytes (``to_plain`` is a copy for callers, not this path)."""

    doc = JsonDocument()
    for sequence in range(200):
        merge_json(doc, reading_payload("dev", 20, sequence))

    committed = benchmark(MergedKey("dev", document=doc).to_committed_bytes)
    assert committed.count(b'"temperature"') == 200


def test_dedup_skip_fast_path(benchmark):
    """Re-merging an identical value must be much cheaper than first merge:
    content-addressed inserts short-circuit."""

    doc = JsonDocument()
    value = {"tempReadings": [{"temperature": str(t), "ts": str(t)} for t in range(50)]}
    merge_json(doc, value)

    benchmark(merge_json, doc, value)
    # No list item is ever re-applied: only the ``tempReadings`` container
    # assign is.
    assert merge_json(doc, value) == 1
    assert doc.to_plain() == value
