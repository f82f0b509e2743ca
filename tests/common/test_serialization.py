"""Tests for canonical serialization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import SerializationError
from repro.common.serialization import (
    byte_size,
    canonical_json,
    deep_copy_json,
    from_bytes,
    json_equal,
    to_bytes,
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**9, 10**9) | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


class TestCanonicalJson:
    def test_sorted_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_compact_separators(self):
        assert canonical_json([1, 2, {"k": "v"}]) == '[1,2,{"k":"v"}]'

    def test_unicode_preserved(self):
        assert canonical_json("héllo") == '"héllo"'

    def test_nan_rejected(self):
        with pytest.raises(SerializationError):
            canonical_json(float("nan"))

    def test_non_json_rejected(self):
        with pytest.raises(SerializationError):
            canonical_json({1, 2})

    @given(json_values)
    def test_roundtrip(self, value):
        assert from_bytes(to_bytes(value)) == value

    @given(json_values, json_values)
    def test_equal_iff_canonical_equal(self, a, b):
        assert json_equal(a, b) == (canonical_json(a) == canonical_json(b))


class TestFromBytes:
    def test_malformed_raises(self):
        with pytest.raises(SerializationError):
            from_bytes(b"{not json")

    def test_bad_utf8_raises(self):
        with pytest.raises(SerializationError):
            from_bytes(b"\xff\xfe")

    def test_integer_past_the_digit_limit_raises(self):
        # json.loads raises a bare ValueError for a literal over Python's
        # int-to-str digit limit (4 300 by default), not a JSONDecodeError.
        with pytest.raises(SerializationError):
            from_bytes(b'{"a":' + b"1" * 5000 + b"}")


class TestHelpers:
    def test_byte_size(self):
        assert byte_size({"a": 1}) == len(b'{"a":1}')

    @given(json_values)
    def test_deep_copy_equal_but_distinct(self, value):
        copy = deep_copy_json(value)
        assert copy == value
        if isinstance(value, (dict, list)) and value:
            assert copy is not value
