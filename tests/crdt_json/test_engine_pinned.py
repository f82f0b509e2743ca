"""The merge engine's output, pinned to the last byte.

Seeded documents are built through ``merge_json`` (dedup on and off),
through direct edits, and through the committer's ``merge_crdt`` on the
benchmark's nested block.  A merge case is built three times: by the
committer's fold (``repro.crdt.json``), by the tree it replaced merging in
place (``tree``), and through Algorithm 2's operation stream
(``reference``) into the operation-based replica (``replica``); the two
trees must agree field by field.  Direct edits need the replica's
local-edit API, so that case is the tree in place against the reference.
Each case records

* the number of operations the fold (direct edits: the tree) applied;
* a digest of every operation of the reference build — id, deps, cursor
  and mutation, in their canonical wire form and in order;
* a digest of ``to_plain()`` and of the committed bytes
  (``MergedKey.to_committed_bytes()``);
* ``stats.snapshot()`` of the document and of a replica rebuilt from the
  reference's operations delivered in a seeded shuffle (the remote path).

Any change to how the engine names, orders or applies operations moves a
digest.  ``python tests/crdt_json/test_engine_pinned.py`` reprints the
literals.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path
from typing import Any

import pytest

from repro.common.config import CRDTConfig
from repro.common.serialization import to_bytes
from repro.core.jsonmerge import MergedKey, init_empty_crdt, merge_crdt, merge_options
from repro.crdt.json import JsonDocument, MergeOptions, merge_json
from repro.workload.iot import nested_payload

if __name__ == "__main__":  # run as a script: the helpers import as a package
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from tests.crdt_json import tree
from tests.crdt_json.reference import document_state, reference_merge
from tests.crdt_json.replica import Cursor, ListStep, MapStep, Operation, Replica, operations_to_bytes
from tests.crdt_json.tree import Payload, TreeDocument

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
    replica = Replica("replica")
    replica.apply_all(shuffled)
    replica.require_quiescent()
    replica.to_plain()
    return replica.stats.snapshot()


class Merges:
    """How a case merges: ``"fold"`` (the committer's engine), ``"tree"``
    (the tree in place) or ``"reference"`` (the operation stream into a
    replica, keeping the operations).  Local edits keep their operations
    whatever the mode."""

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.operations: list[Operation] = []
        self.count = 0  # operations applied, edits and merges

    def document(self, actor: str) -> Any:
        """The document this mode merges into."""

        if self.mode == "fold":
            return JsonDocument()
        return TreeDocument(actor) if self.mode == "tree" else Replica(actor)

    def edit(self, operation: Operation) -> Operation:
        self.operations.append(operation)
        self.count += 1
        return operation

    def merge(self, document: Any, value: dict, options: MergeOptions) -> None:
        if self.mode == "reference":
            merged = reference_merge(document, value, options)
            self.operations += merged
            self.count += len(merged)
        elif self.mode == "tree":
            self.count += tree.merge_json(document, value, options)
        else:
            self.count += merge_json(document, value, options)

    def merge_crdt(self, merged: MergedKey, value: dict, config: CRDTConfig) -> None:
        """The committer's call; the trees merge into the key's document."""

        if self.mode == "fold":
            self.count += merge_crdt(merged, value, config)
        else:
            self.merge(merged.document, value, merge_options(config))


def seeded_merges(merges: Merges, seed: int, dedup: bool) -> Any:
    rng = random.Random(seed)
    document = merges.document(f"b{seed}")
    options = MergeOptions(dedup_identical=dedup)
    for index in range(12):
        value = random_object(rng)
        merges.merge(document, value, options)
        if rng.random() < 0.3:
            merges.merge(document, value, options)  # a redelivery
        if index % 5 == 4:
            document.to_plain()  # a conversion pays the rebuild an insert made due
    return document


def direct_edits(merges: Merges, seed: int, dedup: bool) -> Replica:
    document = Replica("edits")
    edit = merges.edit
    root = Cursor()
    edit(document.assign(root, "k", "v1"))
    edit(document.assign(root, "k", "v2"))
    edit(document.assign_container(root, "items", "list"))
    edit(document.assign_container(root, "nested", "map"))
    items = Cursor((MapStep("items"),))
    tail = [edit(document.append(items, Payload.string(str(i)))) for i in range(4)]
    edit(document.insert_after(items, None, Payload.string("head")))
    inner = edit(document.insert_after(items, tail[1].id, Payload.empty_map()))
    edit(document.assign(items.extended(ListStep(inner.id)), "deep", "1"))
    edit(document.append(items, Payload.empty_list()))
    edit(document.delete_elem(items, tail[3].id))
    edit(document.assign(Cursor((MapStep("nested"), MapStep("path"))), "x", "y"))
    edit(document.assign_container(root, "k", "map"))  # a leaf becomes a map
    edit(document.delete_key(root, "ghost"))
    edit(document.delete_key(Cursor((MapStep("nested"),)), "path"))
    document.to_plain()
    options = MergeOptions(dedup_identical=dedup)
    merges.merge(document, {"items": ["0", "new", {"deep": "2"}], "k": {"in": "m"}}, options)
    return document


def benchmark_block(merges: Merges, seed: int, dedup: bool) -> Any:
    """The JSON half of one ``local_crdt_mixed`` block, as the committer merges it."""

    config = CRDTConfig(dedup_identical=dedup)
    values = [nested_payload(3, 3, 10 + (seed + s) % 25, s) for s in range(15)]
    if merges.mode == "fold":
        merged = init_empty_crdt("doc-hot", values[0], actor="b31")
    else:
        merged = MergedKey("doc-hot", document=merges.document("b31"))
    for value in values:
        merges.merge_crdt(merged, value, config)
    return merged.document


def fingerprint(name: str, seed: int, dedup: bool) -> tuple:
    in_place, reference = Merges("tree"), Merges("reference")
    tree_document = BUILDERS[name](in_place, seed, dedup)
    reference_document = BUILDERS[name](reference, seed, dedup)
    assert document_state(tree_document) == document_state(reference_document)
    operations = reference.operations
    assert in_place.count == len(operations)

    if name == "direct":  # local edits: the tree is the document
        counted, document = in_place, tree_document
        committed = to_bytes(document.to_plain())
    else:
        counted = Merges("fold")
        document = BUILDERS[name](counted, seed, dedup)
        committed = MergedKey("k", document=document).to_committed_bytes()
    plain = document.to_plain()
    return (
        counted.count,
        digest(operations_to_bytes(operations)),
        digest(repr(plain).encode()),  # key order included
        digest(committed),
        document.stats.snapshot(),
        replica_stats(operations, seed),
    )


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
    assert fingerprint(name, seed, dedup) == EXPECTED[(name, seed, dedup)]


if __name__ == "__main__":  # prints the EXPECTED literal
    for case in CASES:
        print(f"    {case!r}: {fingerprint(*case)!r},")
