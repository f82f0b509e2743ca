"""Tests for JSON-CRDT operation serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SerializationError
from repro.crdt.json import Cursor, JsonDocument, MapStep
from repro.crdt.json.serde import (
    operation_from_dict,
    operation_to_dict,
    operations_from_bytes,
    operations_to_bytes,
)

from .reference import reference_merge

json_objects = st.recursive(
    st.dictionaries(st.sampled_from(["a", "b", "c"]), st.text(max_size=4), max_size=3),
    lambda children: st.dictionaries(
        st.sampled_from(["a", "b", "c"]),
        st.one_of(st.text(max_size=4), children,
                  st.lists(st.one_of(st.text(max_size=4), children), max_size=3)),
        max_size=3,
    ),
    max_leaves=10,
)


def sample_ops():
    """One op of every mutation type."""

    doc = JsonDocument("serde")
    ops = reference_merge(doc, {"name": "x", "items": [{"k": "v"}, "leaf"]})
    ops.append(doc.delete_key(Cursor(), "name"))
    items_cursor = Cursor((MapStep("items"),))
    insert_op = next(
        op for op in ops if type(op.mutation).__name__ == "InsertAfter"
    )
    ops.append(doc.delete_elem(items_cursor, insert_op.id))
    return ops


class TestRoundtrip:
    def test_every_mutation_type(self):
        for op in sample_ops():
            assert operation_from_dict(operation_to_dict(op)) == op

    def test_op_log_bytes(self):
        ops = sample_ops()
        restored = operations_from_bytes(operations_to_bytes(ops))
        assert restored == ops

    @settings(max_examples=50, deadline=None)
    @given(st.lists(json_objects, min_size=1, max_size=3))
    def test_property_merge_ops_roundtrip(self, values):
        doc = JsonDocument("src")
        ops = [op for value in values for op in reference_merge(doc, value)]
        restored = operations_from_bytes(operations_to_bytes(ops))
        assert restored == ops

    @settings(max_examples=30, deadline=None)
    @given(st.lists(json_objects, min_size=1, max_size=3))
    def test_replica_built_from_serialized_ops_converges(self, values):
        source = JsonDocument("src")
        operations = [op for value in values for op in reference_merge(source, value)]
        wire = operations_to_bytes(operations)
        replica = JsonDocument("replica")
        replica.apply_all(operations_from_bytes(wire))
        replica.require_quiescent()
        assert replica.to_plain() == source.to_plain()


class TestErrors:
    def test_malformed_operation(self):
        with pytest.raises(SerializationError):
            operation_from_dict({"id": "1@a"})  # missing fields

    def test_unknown_mutation_type(self):
        with pytest.raises(SerializationError):
            operation_from_dict(
                {"id": "1@a", "deps": [], "cursor": [], "mutation": {"type": "explode"}}
            )

    def test_unknown_cursor_step(self):
        from repro.crdt.json.serde import cursor_from_dict

        with pytest.raises(SerializationError):
            cursor_from_dict([{"teleport": "x"}])

    def test_non_list_op_log(self):
        from repro.common.serialization import to_bytes

        with pytest.raises(SerializationError):
            operations_from_bytes(to_bytes({"not": "a list"}))
