"""The merge engine against three references that do not share its code.

The engine locates an operation's container once and applies it in place,
keeps a list's order across tail appends, and *charges* list scans instead
of performing them.  None of that may be visible from outside:

* the operations ``merge_json`` returns, replayed through the remote
  ``apply()`` path into an empty document, rebuild the same document;
* ``ListNode.ordered_ids()`` equals an RGA order built from scratch here;
* the work counters — the cost model's input — equal literals recorded
  from the engine this one replaced (commit e652425).
"""

from __future__ import annotations

from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crdt.json import (
    Cell,
    Cursor,
    DocumentStats,
    JsonDocument,
    ListNode,
    MapStep,
    MergeOptions,
    OpId,
    Payload,
    merge_json,
)
from repro.workload.iot import nested_payload, reading_payload

# -- (a) returned operations, replayed remotely, rebuild the document --------------

keys = st.sampled_from(["a", "b", "c"])
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


@settings(max_examples=120, deadline=None)
@given(
    st.lists(objects, min_size=1, max_size=5),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_returned_operations_rebuild_the_document(merged_values, dedup, rng):
    options = MergeOptions(dedup_identical=dedup)
    source = JsonDocument("b7")
    operations = []
    for value in merged_values:
        operations.extend(merge_json(source, value, options))
    assert len({op.id for op in operations}) == len(operations) == source.stats.ops_applied

    shuffled = operations[:]
    rng.shuffle(shuffled)
    for delivery in (operations, shuffled):
        replica = JsonDocument("replica")
        assert replica.apply_all(delivery) == len(operations)
        replica.require_quiescent()
        assert replica.to_plain() == source.to_plain()
        assert replica.applied_ids == source.applied_ids


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
    doc = JsonDocument("a")
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
    doc = JsonDocument("b1")
    for sequence in range(25):
        merge_json(doc, reading_payload("dev", 20 + sequence % 3, sequence))
    return doc


def nested_block_converted_midway() -> JsonDocument:
    doc = JsonDocument("b2")
    for sequence in range(15):
        merge_json(doc, nested_payload(3, 3, 21, sequence))
        if sequence % 4 == 0:
            doc.to_plain()  # a conversion pays the rebuild an insert made due
    return doc


def repeated_items_without_dedup() -> JsonDocument:
    doc = JsonDocument("b3")
    value = {"l": ["x", "x", ["y", "y"], {"k": ["z", 1, None]}], "n": 2}
    for _ in range(3):
        merge_json(doc, value, MergeOptions(dedup_identical=False))
    return doc


def seeded_then_redelivered() -> JsonDocument:
    doc = JsonDocument("b4")
    committed = {"deviceID": "dev", "tempReadings": [{"t": str(t)} for t in range(10)]}
    merge_json(doc, committed)
    for t in (3, 10, 11, 3):  # carried-over items skip, new ones append
        merge_json(doc, {"deviceID": "dev", "tempReadings": [{"t": str(t)}]})
    doc.to_plain()
    return doc


def direct_edits() -> JsonDocument:
    doc = JsonDocument("b5")
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
