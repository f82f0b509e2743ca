"""Tests for Algorithm 2 (merge a plain JSON object into a document)."""

import pytest

from repro.common.errors import UnsupportedValueError
from repro.crdt.json import JsonDocument, MergeOptions, is_content_id, merge_json

from .reference import reference_merge
from .replica import Replica


def merged_plain(*values, options=MergeOptions()):
    doc = JsonDocument()
    for value in values:
        merge_json(doc, value, options)
    return doc.to_plain()


class TestListingExamples:
    def test_listing_1_to_2(self):
        """The paper's worked example: disjoint readings both survive."""

        result = merged_plain(
            {"tempReadings": [{"temperature": "15"}]},
            {"tempReadings": [{"temperature": "20"}]},
        )
        assert result == {
            "tempReadings": [{"temperature": "15"}, {"temperature": "20"}]
        }

    def test_listing_3_payload(self):
        result = merged_plain(
            {
                "deviceID": "e23df70a",
                "temperatureReadings": [
                    {"temperature": 25},
                    {"temperature": 30},
                    {"temperature": 15},
                ],
            }
        )
        assert result["deviceID"] == "e23df70a"
        assert [r["temperature"] for r in result["temperatureReadings"]] == [
            "25",
            "30",
            "15",
        ]


class TestDedup:
    def test_read_modify_write_no_duplication(self):
        base = {"l": [{"t": "1"}]}
        extended_a = {"l": [{"t": "1"}, {"t": "2"}]}
        extended_b = {"l": [{"t": "1"}, {"t": "3"}]}
        result = merged_plain(base, extended_a, extended_b)
        assert result == {"l": [{"t": "1"}, {"t": "2"}, {"t": "3"}]}

    def test_identical_items_within_one_value_kept(self):
        # Occurrence indexing: ["a", "a"] is two distinct items.
        assert merged_plain({"l": ["a", "a"]}) == {"l": ["a", "a"]}

    def test_multiset_maximum_across_values(self):
        result = merged_plain({"l": ["a", "a"]}, {"l": ["a"]})
        assert result == {"l": ["a", "a"]}

    def test_naive_mode_duplicates(self):
        options = MergeOptions(dedup_identical=False)
        result = merged_plain({"l": ["x"]}, {"l": ["x", "y"]}, options=options)
        assert result == {"l": ["x", "x", "y"]}

    def test_same_content_different_paths_not_confused(self):
        result = merged_plain({"a": ["x"], "b": ["x"]})
        assert result == {"a": ["x"], "b": ["x"]}

    def test_a_key_holding_a_dot_is_not_a_path(self):
        # Unquoted, the key "a.b" and the path a -> b share the path text
        # $.a.b, and the second "X" was skipped as already merged there.
        result = merged_plain({"a": {"b": ["X"]}}, {"a.b": ["X"]})
        assert result == {"a": {"b": ["X"]}, "a.b": ["X"]}


class TestNoSharing:
    """The block's decode cache hands one decoded value to every transaction
    carrying the same bytes: the document must keep no container of it, and
    hand out none of its own."""

    def test_changing_a_merged_value_leaves_the_document(self):
        doc = JsonDocument()
        value = {"l": [{"t": "1"}, ["x"]], "m": {"k": "v"}}
        merge_json(doc, value)
        value["l"][0]["t"] = "changed"
        value["l"][1].append("y")
        value["m"]["k2"] = "new"
        assert doc.to_plain() == {"l": [{"t": "1"}, ["x"]], "m": {"k": "v"}}

    def test_changing_to_plain_leaves_the_document(self):
        doc = JsonDocument()
        merge_json(doc, {"l": [{"t": "1"}], "m": {"k": "v"}})
        plain = doc.to_plain()
        plain["l"][0]["t"] = "changed"
        plain["l"].append("y")
        plain["m"].clear()
        assert doc.to_plain() == {"l": [{"t": "1"}], "m": {"k": "v"}}
        merge_json(doc, {"l": ["z"]})
        assert doc.to_plain() == {"l": [{"t": "1"}, "z"], "m": {"k": "v"}}


class TestScalars:
    def test_stringify_numbers_and_bools(self):
        result = merged_plain({"n": 42, "f": 2.5, "b": True, "z": None})
        assert result == {"n": "42", "f": "2.5", "b": "true", "z": "null"}

    def test_strict_mode_rejects_scalars(self):
        options = MergeOptions(stringify_scalars=False)
        with pytest.raises(UnsupportedValueError):
            merged_plain({"n": 42}, options=options)

    def test_strict_mode_accepts_strings(self):
        options = MergeOptions(stringify_scalars=False)
        assert merged_plain({"s": "fine"}, options=options) == {"s": "fine"}


class TestStructures:
    def test_nested_lists(self):
        result = merged_plain({"outer": [["a", "b"], ["c"]]})
        assert result == {"outer": [["a", "b"], ["c"]]}

    def test_deeply_nested(self):
        value = {"k": [{"l2": [{"l1": "leaf"}]}]}
        assert merged_plain(value) == value

    def test_map_field_overwrite_across_values(self):
        result = merged_plain({"deviceID": "dev1"}, {"deviceID": "dev1"})
        assert result == {"deviceID": "dev1"}

    def test_top_level_non_object_rejected(self):
        doc = JsonDocument()
        with pytest.raises(UnsupportedValueError):
            merge_json(doc, ["not", "an", "object"])

    def test_non_string_keys_rejected(self):
        doc = JsonDocument()
        with pytest.raises(UnsupportedValueError):
            merge_json(doc, {1: "x"})

    def test_empty_object(self):
        assert merged_plain({}) == {}

    def test_empty_list_value(self):
        assert merged_plain({"l": []}) == {"l": []}


class TestOperations:
    def test_count_returned_and_applied(self):
        doc = JsonDocument()
        # assign a + assign-container l + insert x = 3 operations
        assert merge_json(doc, {"a": "1", "l": ["x"]}) == 3
        assert doc.stats.ops_applied == 3
        reference = Replica("peer")
        ops = reference_merge(reference, {"a": "1", "l": ["x"]})
        assert len(ops) == 3
        assert reference.applied_ids == {op.id for op in ops}
        # The document keeps only the content IDs: the ticks name nothing.
        assert doc.applied_ids == {op.id for op in ops if is_content_id(op.id)}

    def test_dedup_skips_known_items_without_ops(self):
        doc = JsonDocument()
        merge_json(doc, {"l": ["x"]})
        # assign-container for "l" applied again, but no insert for "x"
        assert merge_json(doc, {"l": ["x"]}) == 1
        reference = Replica("peer")
        reference_merge(reference, {"l": ["x"]})
        ops = reference_merge(reference, {"l": ["x"]})
        assert [op.mutation.__class__.__name__ for op in ops] == ["AssignKey"]

    def test_deps_chain(self):
        doc = Replica("peer")
        ops = reference_merge(doc, {"a": "1", "b": "2", "c": "3"})
        for previous, current in zip(ops, ops[1:]):
            assert previous.id in current.deps
