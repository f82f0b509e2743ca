"""The tree engine against references that do not share its code.

The tree's merge (``tree.merge_json``, the specification of the committer's
fold) walks the value and the tree together and writes each field in place;
it keeps a list's order across tail appends and *charges* list scans
instead of performing them.  None of that may be visible from outside:

* ``tree.merge_json`` leaves exactly the state that Algorithm 2's operation
  stream (``reference.reference_merge``) leaves, and that stream, replayed
  through the operation-based replica's ``apply()`` (``replica.Replica``) in
  any order, rebuilds it;
* ``ListNode.ordered_ids()`` equals an RGA order built from scratch here;
* the work counters — the cost model's input — equal literals recorded
  from the engine this one replaced (commit e652425), for the committer's
  fold (``repro.crdt.json``) and for the replica's local edits.
"""

from __future__ import annotations

from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crdt.json import DocumentStats, JsonDocument, MergeOptions, OpId, merge_json
from repro.workload.iot import nested_payload, reading_payload

from . import tree
from .reference import document_state, reference_merge
from .replica import AssignKey, Cursor, MapStep, Operation, Replica
from .tree import Cell, ListNode, Payload

# -- (a) the in-place merge leaves the reference's state -----------------------------

#: Besides plain keys, keys holding what the path text quotes: a step
#: separator (``"a.b"`` reads like the path ``a`` → ``b`` unquoted), a
#: bracket, a quote, a backslash and a control character.
SPECIAL_KEYS = ["a.b", "c[0]", 'q"', "\\", "n\x00"]
keys = st.sampled_from(["a", "b", "c", *SPECIAL_KEYS])
leaves = st.one_of(
    st.sampled_from(["x", "y", ""]),  # few distinct strings: identical list items repeat
    st.integers(-2, 2),
    st.booleans(),
    st.none(),
    st.sampled_from([0.5, 2e10]),
)
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.dictionaries(keys, children, max_size=3),
        st.lists(children, max_size=4),
    ),
    max_leaves=10,
)
objects = st.dictionaries(keys, values, max_size=3)

#: What a document may hold before the merges: local edits that put a leaf
#: or a container where a value may put the other kind, a deleted key, and
#: a remote operation buffered until the merging document's first tick
#: (so a merge drains it midway).
SEEDS = {
    "leaf": lambda doc: doc.assign(Cursor(), "a", "seed"),
    "map": lambda doc: doc.assign_container(Cursor(), "b", "map"),
    "list item": lambda doc: doc.append(Cursor((MapStep("c"),)), Payload.string("x")),
    "deleted": lambda doc: doc.delete_key(Cursor(), "a"),
    "buffered": lambda doc: _deliver(
        doc,
        Operation(
            OpId(9, "remote"), frozenset({OpId(1, "b7")}), Cursor(),
            AssignKey("b", Payload.string("remote")),
        ),
    ),
}


def _deliver(document: Replica, operation: Operation) -> Operation:
    document.apply(operation)
    return operation


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from(sorted(SEEDS)), max_size=4, unique=True),
    st.lists(st.tuples(objects, st.booleans()), min_size=1, max_size=5),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_in_place_merge_equals_the_reference(seeds, merges, dedup, rng):
    options = MergeOptions(dedup_identical=dedup)
    in_place, reference = Replica("b7"), Replica("b7")
    operations = [SEEDS[name](reference) for name in seeds]
    for name in seeds:
        SEEDS[name](in_place)
    for value, redelivered in merges:
        for _ in range(1 + redelivered):
            merged = reference_merge(reference, value, options)
            assert tree.merge_json(in_place, value, options) == len(merged)
            operations += merged
            # Causal delivery: nothing stays buffered once its deps are in.
            assert not any(op.deps <= in_place.applied_ids for op in in_place._buffer.values())
    assert document_state(in_place) == document_state(reference)

    # The reference's operations, delivered in order and shuffled, rebuild
    # it (a buffered operation still waiting for its tick is not part of it).
    operations = [op for op in operations if in_place.has_applied(op.id)]
    assert len({op.id for op in operations}) == len(operations) == in_place.stats.ops_applied
    shuffled = operations[:]
    rng.shuffle(shuffled)
    for delivery in (operations, shuffled):
        replica = Replica("replica")
        assert replica.apply_all(delivery) == len(operations)
        replica.require_quiescent()
        assert document_state(replica, replica=True) == document_state(in_place, replica=True)


# -- (b) the kept order equals an order built from scratch ---------------------------


def rga_order(anchors: dict[OpId, Optional[OpId]]) -> list[OpId]:
    """Depth-first over the inserted-after forest, siblings by descending ID."""

    def subtree(anchor: Optional[OpId]) -> list[OpId]:
        siblings = sorted((e for e, a in anchors.items() if a == anchor), reverse=True)
        return [descendant for e in siblings for descendant in [e, *subtree(e)]]

    return subtree(None)


#: One insert: which existing element to anchor at (an index into the current
#: order, reduced modulo its length + 1; the extra position is the head),
#: whether to anchor at the tail instead, and the new element's counter — a
#: small range, so concurrent siblings with lower *and* higher IDs occur.
inserts = st.lists(
    st.tuples(st.integers(0, 40), st.booleans(), st.integers(1, 6)), max_size=25
)


@settings(max_examples=150, deadline=None)
@given(inserts, st.sets(st.integers(0, 24)))
def test_list_order_equals_from_scratch_rga(plan, reads_after):
    node = ListNode()
    stats = DocumentStats()
    anchors: dict[OpId, Optional[OpId]] = {}
    for index, (position, at_tail, counter) in enumerate(plan):
        order = rga_order(anchors)
        if at_tail or not order:
            anchor = order[-1] if order else None
        else:
            anchor = (order + [None])[position % (len(order) + 1)]
        element_id = OpId(counter, f"actor{index}")
        node.insert(Cell(element_id=element_id, anchor=anchor), stats)
        anchors[element_id] = anchor
        if index in reads_after:  # a read between inserts must not disturb later ones
            assert node.ordered_ids() == rga_order(anchors)
    assert node.ordered_ids() == rga_order(anchors)
    assert stats.nodes_created == len(plan)


def test_append_anchor_skips_invisible_tail():
    doc = Replica("a")
    doc.assign_container(Cursor(), "items", "list")
    cursor = Cursor((MapStep("items"),))
    first = doc.append(cursor, Payload.string("first"))
    last = doc.append(cursor, Payload.string("last"))
    doc.delete_elem(cursor, last.id)
    appended = doc.append(cursor, Payload.string("next"))
    assert appended.mutation.anchor == first.id
    assert doc.to_plain() == {"items": ["first", "next"]}


# -- (c) the work counters are the old engine's, to the unit --------------------------


def readings_block() -> JsonDocument:
    doc = JsonDocument()
    for sequence in range(25):
        merge_json(doc, reading_payload("dev", 20 + sequence % 3, sequence))
    return doc


def nested_block_converted_midway() -> JsonDocument:
    doc = JsonDocument()
    for sequence in range(15):
        merge_json(doc, nested_payload(3, 3, 21, sequence))
        if sequence % 4 == 0:
            doc.to_plain()  # a conversion pays the rebuild an insert made due
    return doc


def repeated_items_without_dedup() -> JsonDocument:
    doc = JsonDocument()
    value = {"l": ["x", "x", ["y", "y"], {"k": ["z", 1, None]}], "n": 2}
    for _ in range(3):
        merge_json(doc, value, MergeOptions(dedup_identical=False))
    return doc


def seeded_then_redelivered() -> JsonDocument:
    doc = JsonDocument()
    committed = {"deviceID": "dev", "tempReadings": [{"t": str(t)} for t in range(10)]}
    merge_json(doc, committed)
    for t in (3, 10, 11, 3):  # carried-over items skip, new ones append
        merge_json(doc, {"deviceID": "dev", "tempReadings": [{"t": str(t)}]})
    doc.to_plain()
    return doc


def direct_edits() -> Replica:
    doc = Replica("b5")
    doc.assign_container(Cursor(), "items", "list")
    cursor = Cursor((MapStep("items"),))
    tail = [doc.append(cursor, Payload.string(str(i))) for i in range(4)]
    doc.insert_after(cursor, None, Payload.string("head"))
    doc.insert_after(cursor, tail[1].id, Payload.string("middle"))
    doc.append(cursor, Payload.string("after a rebuild"))
    doc.delete_elem(cursor, tail[3].id)
    doc.to_plain()
    doc.append(cursor, Payload.string("after a conversion"))
    doc.assign(Cursor((MapStep("new"), MapStep("path"))), "k", "v")
    doc.delete_key(Cursor(), "ghost")
    return doc


@pytest.mark.parametrize(
    "build, ops_applied, nodes_created, list_scan_steps",
    [
        (readings_block, 125, 103, 600),
        (nested_block_converted_midway, 225, 321, 669),
        (repeated_items_without_dedup, 36, 42, 156),
        (seeded_then_redelivered, 34, 39, 144),
        (direct_edits, 12, 15, 38),
    ],
)
def test_work_counters_match_the_replaced_engine(
    build, ops_applied, nodes_created, list_scan_steps
):
    assert build().stats.snapshot() == {
        "ops_applied": ops_applied,
        "ops_buffered": 0,
        "nodes_created": nodes_created,
        "list_scan_steps": list_scan_steps,
    }
