"""Tests for the replica's cursors and for operation IDs."""

import pytest

from repro.common.clock import LamportTimestamp
from repro.crdt.json.ids import CONTENT_COUNTER, content_id, is_content_id, key_step

from .replica import Cursor, ListStep, MapStep


class TestCursor:
    def test_extend_and_parent(self):
        cursor = Cursor().extended(MapStep("a")).extended(MapStep("b"))
        assert len(cursor) == 2
        assert cursor.parent().steps == (MapStep("a"),)

    def test_root_parent_rejected(self):
        with pytest.raises(ValueError):
            Cursor().parent()

    def test_string_form(self):
        cursor = Cursor(
            (MapStep("items"), ListStep(LamportTimestamp(3, "a")), MapStep("t"))
        )
        assert str(cursor) == "$.items[3@a].t"
        assert cursor.path_repr() == str(cursor)

    @pytest.mark.parametrize(
        "key, text",
        [
            ("items", ".items"),
            ("a b]", ".a b]"),
            ("a.b", '."a.b"'),
            ("a[0]", '."a[0]"'),
            ('q"', '."q\\""'),
            ("\\", '."\\\\"'),
            ("n\x00", '."n\\u0000"'),
        ],
    )
    def test_a_key_is_quoted_when_it_holds_path_characters(self, key, text):
        assert key_step(key) == str(MapStep(key)) == text


class TestContentIds:
    def test_deterministic(self):
        a = content_id("$.l", {"t": "1"}, 0)
        b = content_id("$.l", {"t": "1"}, 0)
        assert a == b

    def test_occurrence_distinguishes(self):
        assert content_id("$.l", "x", 0) != content_id("$.l", "x", 1)

    def test_path_distinguishes(self):
        assert content_id("$.a", "x", 0) != content_id("$.b", "x", 0)

    def test_content_distinguishes(self):
        assert content_id("$.l", "x", 0) != content_id("$.l", "y", 0)

    def test_marker(self):
        assert is_content_id(content_id("$.l", "x", 0))
        assert not is_content_id(LamportTimestamp(1, "peer"))

    def test_counter_constant(self):
        assert content_id("$.l", "x", 0).counter == CONTENT_COUNTER

    def test_negative_occurrence_rejected(self):
        with pytest.raises(ValueError):
            content_id("$.l", "x", -1)
