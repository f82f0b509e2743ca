"""The merge engine's output, pinned to the last byte.

Seeded documents are built through ``merge_json`` (dedup on and off),
through direct edits, and through the committer's ``merge_crdt`` on the
benchmark's nested block; each case records

* a digest of every returned operation — id, deps, cursor and mutation, in
  their canonical serde form and in order;
* a digest of ``to_plain()`` and of ``MergedKey.to_committed_bytes()``;
* ``stats.snapshot()`` of the source and of a replica rebuilt from the
  returned operations delivered in a seeded shuffle (the remote path).

Any change to how the engine names, orders or applies operations moves a
digest.  ``python tests/crdt_json/test_engine_pinned.py`` reprints the
literals.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any

import pytest

from repro.common.config import CRDTConfig
from repro.core.jsonmerge import MergedKey, init_empty_crdt, merge_crdt
from repro.crdt.json import (
    Cursor,
    JsonDocument,
    ListStep,
    MapStep,
    MergeOptions,
    Operation,
    Payload,
    merge_json,
    operations_to_bytes,
)
from repro.workload.iot import nested_payload

KEYS = ("a", "b", "c", "d")
LEAVES = ("x", "y", "", "zz", 0, 7, -1, True, None, 0.5)


def random_value(rng: random.Random, depth: int) -> Any:
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        return rng.choice(LEAVES)
    if roll < 0.75:
        # Few distinct items, so identical siblings (dedup's case) repeat.
        return [random_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    return {key: random_value(rng, depth - 1) for key in rng.sample(KEYS, rng.randint(0, 3))}


def random_object(rng: random.Random) -> dict:
    return {key: random_value(rng, 3) for key in rng.sample(KEYS, rng.randint(1, 4))}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def replica_stats(operations: list[Operation], seed: int) -> dict:
    shuffled = operations[:]
    random.Random(seed).shuffle(shuffled)
    replica = JsonDocument("replica")
    replica.apply_all(shuffled)
    replica.require_quiescent()
    replica.to_plain()
    return replica.stats.snapshot()


def fingerprint(document: JsonDocument, operations: list[Operation], seed: int) -> tuple:
    plain = document.to_plain()
    committed = MergedKey("k", document=document).to_committed_bytes()
    return (
        len(operations),
        digest(operations_to_bytes(operations)),
        digest(repr(plain).encode()),  # key order included
        digest(committed),
        document.stats.snapshot(),
        replica_stats(operations, seed),
    )


def seeded_merges(seed: int, dedup: bool) -> tuple:
    rng = random.Random(seed)
    document = JsonDocument(f"b{seed}")
    options = MergeOptions(dedup_identical=dedup)
    operations: list[Operation] = []
    for index in range(12):
        value = random_object(rng)
        operations.extend(merge_json(document, value, options))
        if rng.random() < 0.3:
            operations.extend(merge_json(document, value, options))  # a redelivery
        if index % 5 == 4:
            document.to_plain()  # a conversion pays the rebuild an insert made due
    return fingerprint(document, operations, seed)


def direct_edits(seed: int, dedup: bool) -> tuple:
    document = JsonDocument("edits")
    root = Cursor()
    operations = [
        document.assign(root, "k", "v1"),
        document.assign(root, "k", "v2"),
        document.assign_container(root, "items", "list"),
        document.assign_container(root, "nested", "map"),
    ]
    items = Cursor((MapStep("items"),))
    tail = [document.append(items, Payload.string(str(i))) for i in range(4)]
    operations += tail
    operations.append(document.insert_after(items, None, Payload.string("head")))
    operations.append(document.insert_after(items, tail[1].id, Payload.empty_map()))
    inner = items.extended(ListStep(operations[-1].id))
    operations.append(document.assign(inner, "deep", "1"))
    operations.append(document.append(items, Payload.empty_list()))
    operations.append(document.delete_elem(items, tail[3].id))
    operations.append(document.assign(Cursor((MapStep("nested"), MapStep("path"))), "x", "y"))
    operations.append(document.assign_container(root, "k", "map"))  # a leaf becomes a map
    operations.append(document.delete_key(root, "ghost"))
    operations.append(document.delete_key(Cursor((MapStep("nested"),)), "path"))
    document.to_plain()
    options = MergeOptions(dedup_identical=dedup)
    operations += merge_json(document, {"items": ["0", "new", {"deep": "2"}], "k": {"in": "m"}}, options)
    return fingerprint(document, operations, seed)


def benchmark_block(seed: int, dedup: bool) -> tuple:
    """The JSON half of one ``local_crdt_mixed`` block, as the committer merges it."""

    config = CRDTConfig(dedup_identical=dedup)
    values = [nested_payload(3, 3, 10 + (seed + s) % 25, s) for s in range(15)]
    merged = init_empty_crdt("doc-hot", values[0], actor="b31")
    operations: list[Operation] = []
    for value in values:
        operations += merge_crdt(merged, value, config)
    return fingerprint(merged.document, operations, seed)


BUILDERS = {
    "seeded": seeded_merges,
    "direct": direct_edits,
    "block": benchmark_block,
}
CASES = [
    (name, seed, dedup)
    for name, seeds in (("seeded", range(6)), ("direct", (0,)), ("block", (0, 1)))
    for seed in seeds
    for dedup in (True, False)
]

EXPECTED: dict[tuple[str, int, bool], tuple] = {
    ('seeded', 0, True): (106, '7cea141ce70b5a9d', 'e3c16b721653c9d2', '1367ccd0ff283a1c', {'ops_applied': 106, 'ops_buffered': 0, 'nodes_created': 95, 'list_scan_steps': 60}, {'ops_applied': 106, 'ops_buffered': 80, 'nodes_created': 95, 'list_scan_steps': 2}),
    ('seeded', 0, False): (118, '09863767d657094a', 'e3c16b721653c9d2', '1367ccd0ff283a1c', {'ops_applied': 118, 'ops_buffered': 0, 'nodes_created': 112, 'list_scan_steps': 129}, {'ops_applied': 118, 'ops_buffered': 93, 'nodes_created': 112, 'list_scan_steps': 2}),
    ('seeded', 1, True): (198, '8d5d293ca030eb04', '4210bcdb9bbe4c78', 'c50bd183e91073bc', {'ops_applied': 198, 'ops_buffered': 0, 'nodes_created': 183, 'list_scan_steps': 295}, {'ops_applied': 198, 'ops_buffered': 174, 'nodes_created': 183, 'list_scan_steps': 18}),
    ('seeded', 1, False): (241, 'd425230329e2b1c6', '261ff8062eae9813', '437099228fe28b9d', {'ops_applied': 241, 'ops_buffered': 0, 'nodes_created': 241, 'list_scan_steps': 696}, {'ops_applied': 241, 'ops_buffered': 217, 'nodes_created': 241, 'list_scan_steps': 33}),
    ('seeded', 2, True): (94, '9f60ba9a9d967af2', '2da776cbce989e20', 'cece35abff8c5087', {'ops_applied': 94, 'ops_buffered': 0, 'nodes_created': 93, 'list_scan_steps': 160}, {'ops_applied': 94, 'ops_buffered': 74, 'nodes_created': 93, 'list_scan_steps': 0}),
    ('seeded', 2, False): (107, 'c3bc61ea127b3d90', '2da776cbce989e20', 'cece35abff8c5087', {'ops_applied': 107, 'ops_buffered': 0, 'nodes_created': 112, 'list_scan_steps': 329}, {'ops_applied': 107, 'ops_buffered': 87, 'nodes_created': 112, 'list_scan_steps': 0}),
    ('seeded', 3, True): (143, 'fd90ecb534af6826', 'f6ae8c5c76fd260e', '69d722020a34226c', {'ops_applied': 143, 'ops_buffered': 0, 'nodes_created': 142, 'list_scan_steps': 168}, {'ops_applied': 143, 'ops_buffered': 114, 'nodes_created': 142, 'list_scan_steps': 17}),
    ('seeded', 3, False): (174, '707d81ea336a78d3', '6f48e5ef9c770bd3', 'bdf9d0e722f8860e', {'ops_applied': 174, 'ops_buffered': 0, 'nodes_created': 183, 'list_scan_steps': 312}, {'ops_applied': 174, 'ops_buffered': 138, 'nodes_created': 183, 'list_scan_steps': 22}),
    ('seeded', 4, True): (92, '5971544a50f09ee9', 'c331667eeae95788', 'aa3f89cb2055a8ec', {'ops_applied': 92, 'ops_buffered': 0, 'nodes_created': 73, 'list_scan_steps': 87}, {'ops_applied': 92, 'ops_buffered': 77, 'nodes_created': 73, 'list_scan_steps': 5}),
    ('seeded', 4, False): (103, 'aaa49f8bdc0e5850', 'c331667eeae95788', 'aa3f89cb2055a8ec', {'ops_applied': 103, 'ops_buffered': 0, 'nodes_created': 89, 'list_scan_steps': 141}, {'ops_applied': 103, 'ops_buffered': 89, 'nodes_created': 89, 'list_scan_steps': 5}),
    ('seeded', 5, True): (145, '8ea28fa8d185e16d', 'b70bb32813a131f8', 'e93bdd9b878bacf4', {'ops_applied': 145, 'ops_buffered': 0, 'nodes_created': 150, 'list_scan_steps': 241}, {'ops_applied': 145, 'ops_buffered': 127, 'nodes_created': 150, 'list_scan_steps': 32}),
    ('seeded', 5, False): (189, '52c83269d4f93152', 'a1d2458d6b53b838', 'c25a4e0edb7f7a2f', {'ops_applied': 189, 'ops_buffered': 0, 'nodes_created': 212, 'list_scan_steps': 527}, {'ops_applied': 189, 'ops_buffered': 172, 'nodes_created': 212, 'list_scan_steps': 54}),
    ('direct', 0, True): (24, 'c571f691586490a3', '7efd4b96bbb6f505', '096047722445d0ed', {'ops_applied': 24, 'ops_buffered': 0, 'nodes_created': 25, 'list_scan_steps': 82}, {'ops_applied': 24, 'ops_buffered': 9, 'nodes_created': 25, 'list_scan_steps': 10}),
    ('direct', 0, False): (24, '16750132d890c62d', '7efd4b96bbb6f505', '096047722445d0ed', {'ops_applied': 24, 'ops_buffered': 0, 'nodes_created': 25, 'list_scan_steps': 82}, {'ops_applied': 24, 'ops_buffered': 9, 'nodes_created': 25, 'list_scan_steps': 10}),
    ('block', 0, True): (225, '237f2538569be52c', '1cec26d78730da79', '24e8dc3576ae7ca5', {'ops_applied': 225, 'ops_buffered': 0, 'nodes_created': 321, 'list_scan_steps': 720}, {'ops_applied': 225, 'ops_buffered': 193, 'nodes_created': 321, 'list_scan_steps': 90}),
    ('block', 0, False): (225, '1b53c30f433d64d2', '1cec26d78730da79', '24e8dc3576ae7ca5', {'ops_applied': 225, 'ops_buffered': 0, 'nodes_created': 321, 'list_scan_steps': 720}, {'ops_applied': 225, 'ops_buffered': 193, 'nodes_created': 321, 'list_scan_steps': 90}),
    ('block', 1, True): (225, '67d87e779241aa62', '048a81a66f4c9579', '6c20766419354536', {'ops_applied': 225, 'ops_buffered': 0, 'nodes_created': 321, 'list_scan_steps': 720}, {'ops_applied': 225, 'ops_buffered': 207, 'nodes_created': 321, 'list_scan_steps': 90}),
    ('block', 1, False): (225, '8ba0396e21fd49c2', '048a81a66f4c9579', '6c20766419354536', {'ops_applied': 225, 'ops_buffered': 0, 'nodes_created': 321, 'list_scan_steps': 720}, {'ops_applied': 225, 'ops_buffered': 207, 'nodes_created': 321, 'list_scan_steps': 90}),
}


@pytest.mark.parametrize("name, seed, dedup", CASES)
def test_engine_output_is_pinned(name, seed, dedup):
    assert BUILDERS[name](seed, dedup) == EXPECTED[(name, seed, dedup)]


if __name__ == "__main__":  # prints the EXPECTED literal
    for case in CASES:
        print(f"    {case!r}: {BUILDERS[case[0]](case[1], case[2])!r},")
