"""Tests for the operation-based replica: local edits, visibility, deletion,
causal delivery."""

import pytest

from repro.crdt.json import OpId

from .replica import AssignKey, CausalityError, Cursor, ListStep, MapStep, Operation, Replica
from .tree import Payload


class TestAssign:
    def test_assign_string_at_root(self):
        doc = Replica("a")
        doc.assign(Cursor(), "name", "value")
        assert doc.to_plain() == {"name": "value"}

    def test_reassign_overwrites(self):
        doc = Replica("a")
        doc.assign(Cursor(), "k", "v1")
        doc.assign(Cursor(), "k", "v2")
        assert doc.to_plain() == {"k": "v2"}

    def test_assign_nested_map(self):
        doc = Replica("a")
        doc.assign_container(Cursor(), "outer", "map")
        doc.assign(Cursor((MapStep("outer"),)), "inner", "deep")
        assert doc.to_plain() == {"outer": {"inner": "deep"}}

    def test_non_string_leaf_rejected(self):
        doc = Replica("a")
        with pytest.raises(TypeError):
            doc.assign(Cursor(), "k", 42)


class TestLists:
    def test_append_order(self):
        doc = Replica("a")
        doc.assign_container(Cursor(), "items", "list")
        cursor = Cursor((MapStep("items"),))
        for value in ("x", "y", "z"):
            doc.append(cursor, Payload.string(value))
        assert doc.to_plain() == {"items": ["x", "y", "z"]}

    def test_insert_after_none_prepends(self):
        doc = Replica("a")
        doc.assign_container(Cursor(), "items", "list")
        cursor = Cursor((MapStep("items"),))
        doc.append(cursor, Payload.string("second"))
        doc.insert_after(cursor, None, Payload.string("first"))
        assert doc.to_plain() == {"items": ["first", "second"]}

    def test_nested_map_in_list(self):
        doc = Replica("a")
        doc.assign_container(Cursor(), "items", "list")
        list_cursor = Cursor((MapStep("items"),))
        insert = doc.append(list_cursor, Payload.empty_map())
        item_cursor = list_cursor.extended(ListStep(insert.id))
        doc.assign(item_cursor, "temperature", "15")
        assert doc.to_plain() == {"items": [{"temperature": "15"}]}


class TestDelete:
    def test_delete_key(self):
        doc = Replica("a")
        doc.assign(Cursor(), "k", "v")
        doc.delete_key(Cursor(), "k")
        assert doc.to_plain() == {}

    def test_delete_missing_key_noop(self):
        doc = Replica("a")
        doc.delete_key(Cursor(), "ghost")
        assert doc.to_plain() == {}

    def test_delete_list_element(self):
        doc = Replica("a")
        doc.assign_container(Cursor(), "items", "list")
        cursor = Cursor((MapStep("items"),))
        first = doc.append(cursor, Payload.string("a"))
        doc.append(cursor, Payload.string("b"))
        doc.delete_elem(cursor, first.id)
        assert doc.to_plain() == {"items": ["b"]}

    def test_concurrent_add_survives_delete(self):
        # Replica A deletes key "k" having observed only op1; replica B's
        # concurrent re-assign (not observed by the delete) must survive.
        source = Replica("src")
        op1 = source.assign(Cursor(), "k", "v1")
        delete = source.delete_key(Cursor(), "k")  # observed == {op1 path ids}
        replica = Replica("replica")
        replica.apply(op1)
        concurrent = replica.assign(Cursor(), "k", "v2")
        replica.apply(delete)
        assert replica.to_plain() == {"k": "v2"}

    def test_resurrection_via_later_assign(self):
        doc = Replica("a")
        doc.assign(Cursor(), "k", "v")
        doc.delete_key(Cursor(), "k")
        doc.assign(Cursor(), "k", "back")
        assert doc.to_plain() == {"k": "back"}


class TestApply:
    def test_duplicate_application_is_noop(self):
        source = Replica("src")
        op = source.assign(Cursor(), "k", "v")
        replica = Replica("rep")
        assert replica.apply(op) is True
        assert replica.apply(op) is False
        assert replica.to_plain() == {"k": "v"}

    def test_missing_deps_buffered(self):
        source = Replica("src")
        op1 = source.assign(Cursor(), "a", "1")
        op2 = source.assign(Cursor(), "b", "2", deps=frozenset({op1.id}))
        replica = Replica("rep")
        assert replica.apply(op2) is False  # buffered
        assert replica.pending_count == 1
        assert replica.to_plain() == {}
        replica.apply(op1)
        assert replica.pending_count == 0
        assert replica.to_plain() == {"a": "1", "b": "2"}

    def test_require_quiescent_raises_on_stuck_ops(self):
        source = Replica("src")
        op1 = source.assign(Cursor(), "a", "1")
        op2 = source.assign(Cursor(), "b", "2", deps=frozenset({op1.id}))
        replica = Replica("rep")
        replica.apply(op2)
        with pytest.raises(CausalityError):
            replica.require_quiescent()

    def test_cursor_through_unknown_list_element_buffers(self):
        source = Replica("src")
        container = source.assign_container(Cursor(), "items", "list")
        insert = source.append(Cursor((MapStep("items"),)), Payload.empty_map())
        nested = source.assign(
            Cursor((MapStep("items"), ListStep(insert.id))), "k", "v"
        )
        replica = Replica("rep")
        # nested references insert.id in its cursor: buffered until it arrives
        assert replica.apply(nested) is False
        replica.apply_all([container, insert, nested])
        replica.require_quiescent()
        assert replica.to_plain() == source.to_plain()

    def test_type_mismatch_cursor_raises(self):
        doc = Replica("a")
        doc.assign(Cursor(), "k", "just-a-string")
        bad = Operation(
            id=doc.clock.tick(),
            cursor=Cursor((MapStep("k"), MapStep("nested"))),
            mutation=AssignKey("x", Payload.string("y")),
        )
        # Descending through "k" creates a map branch beside the string leaf;
        # conversion then resolves the slot by highest op id.
        doc.apply(bad)
        assert doc.to_plain()["k"] == {"nested": {"x": "y"}}


class TestClock:
    def test_clock_advances_past_applied_ops(self):
        source = Replica("src")
        operations = [source.assign(Cursor(), f"k{i}", "v") for i in range(5)]
        replica = Replica("rep")
        replica.apply_all(operations)
        fresh = replica.assign(Cursor(), "mine", "v")
        assert all(fresh.id > op.id for op in operations)

    def test_clock_advances_past_a_named_element_id(self):
        doc = Replica("a")
        doc.assign_container(Cursor(), "l", "list")
        named = OpId(50, "other")
        inserted = doc.insert_after(Cursor((MapStep("l"),)), None, Payload.string("x"), named)
        assert inserted.id == named
        assert doc.assign(Cursor(), "k", "v").id > named
