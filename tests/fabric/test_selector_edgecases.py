"""Mango selector edge cases: compiled predicate ≡ naive evaluator.

Covers the corners the original suite skipped — ``$not`` over complex
subtrees, ``$exists`` interplay with missing paths, nested ``$and``/``$or``
combinations, and non-comparable type mismatches — asserted identical
across both state-store backends, plus a hypothesis property comparing the
compiled predicate against an independently written naive evaluator.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.serialization import to_bytes
from repro.common.types import Version
from repro.fabric.store import compile_selector
from repro.fabric.store import create_store

BACKENDS = ("memory", "sqlite")


# ---------------------------------------------------------------------------
# A naive, independent re-statement of the selector semantics
# ---------------------------------------------------------------------------

_ABSENT = object()


def _lookup(doc, path):
    node = doc
    for part in path.split("."):
        if isinstance(node, dict) and part in node:
            node = node[part]
        else:
            return _ABSENT
    return node


def _types_comparable(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return True
    return type(a) is type(b)


def _naive_op(op, actual, expected):
    if actual is _ABSENT:
        return False
    if op == "$eq":
        return actual == expected
    if op == "$ne":
        return actual != expected
    if op == "$in":
        return actual in expected
    if op == "$nin":
        return actual not in expected
    if not _types_comparable(actual, expected):
        return False
    return {
        "$gt": actual > expected,
        "$gte": actual >= expected,
        "$lt": actual < expected,
        "$lte": actual <= expected,
    }[op]


def naive_matches(selector, doc):
    """Straight-line recursive evaluation of a Mango selector."""

    for field, condition in selector.items():
        if field == "$and":
            if not all(naive_matches(sub, doc) for sub in condition):
                return False
        elif field == "$or":
            if not any(naive_matches(sub, doc) for sub in condition):
                return False
        elif field == "$not":
            if naive_matches(condition, doc):
                return False
        elif isinstance(condition, dict) and any(k.startswith("$") for k in condition):
            actual = _lookup(doc, field)
            for op, expected in condition.items():
                if op == "$exists":
                    if (actual is not _ABSENT) != bool(expected):
                        return False
                elif not _naive_op(op, actual, expected):
                    return False
        else:
            if _lookup(doc, field) != condition:
                return False
    return True


# ---------------------------------------------------------------------------
# Directed edge cases
# ---------------------------------------------------------------------------

DOCS = {
    "d1": {"type": "sensor", "temp": 20, "loc": {"room": "A", "floor": 1}},
    "d2": {"type": "sensor", "temp": 30.5, "loc": {"room": "B"}},
    "d3": {"type": "gateway", "temp": "hot"},
    "d4": {"type": "sensor", "active": True, "temp": 1},
    "d5": {"loc": {"room": {"wing": "north"}}},
}


def _query_all_backends(selector):
    """rich_query results on every backend (asserted identical), as key lists."""

    per_backend = []
    for backend in BACKENDS:
        store = create_store(backend)
        for index, (key, doc) in enumerate(sorted(DOCS.items())):
            store.apply_write(key, to_bytes(doc), Version(0, index))
        per_backend.append([key for key, _ in store.rich_query(selector)])
        store.close()
    assert per_backend[0] == per_backend[1]
    return per_backend[0]


class TestNotOperator:
    def test_not_over_equality(self):
        assert _query_all_backends({"$not": {"type": "sensor"}}) == ["d3", "d5"]

    def test_not_over_nested_or(self):
        selector = {"$not": {"$or": [{"type": "gateway"}, {"temp": {"$gte": 30}}]}}
        assert _query_all_backends(selector) == ["d1", "d4", "d5"]

    def test_double_negation(self):
        assert _query_all_backends({"$not": {"$not": {"type": "sensor"}}}) == [
            "d1",
            "d2",
            "d4",
        ]

    def test_not_on_missing_field_matches(self):
        # $not over a field predicate on an absent field: the inner predicate
        # is false, so the negation matches (CouchDB semantics).
        assert "d5" in _query_all_backends({"$not": {"temp": {"$gt": 0}}})


class TestExists:
    def test_exists_true_and_false(self):
        assert _query_all_backends({"loc": {"$exists": True}}) == ["d1", "d2", "d5"]
        assert _query_all_backends({"loc": {"$exists": False}}) == ["d3", "d4"]

    def test_exists_on_dotted_path(self):
        assert _query_all_backends({"loc.room.wing": {"$exists": True}}) == ["d5"]

    def test_exists_combined_with_comparison(self):
        selector = {"temp": {"$exists": True, "$gte": 20}}
        assert _query_all_backends(selector) == ["d1", "d2"]

    def test_exists_with_truthy_values(self):
        # CouchDB coerces $exists operands to booleans.
        assert _query_all_backends({"loc": {"$exists": 1}}) == ["d1", "d2", "d5"]


class TestNestedCombinators:
    def test_and_inside_or(self):
        selector = {
            "$or": [
                {"$and": [{"type": "sensor"}, {"temp": {"$lt": 25}}]},
                {"type": "gateway"},
            ]
        }
        assert _query_all_backends(selector) == ["d1", "d3", "d4"]

    def test_or_inside_and(self):
        selector = {
            "$and": [
                {"$or": [{"loc.room": "A"}, {"loc.room": "B"}]},
                {"temp": {"$gt": 25}},
            ]
        }
        assert _query_all_backends(selector) == ["d2"]

    def test_empty_and_or_behaviour(self):
        assert _query_all_backends({"$and": []}) == sorted(DOCS)
        assert _query_all_backends({"$or": []}) == []

    def test_implicit_and_of_fields(self):
        assert _query_all_backends({"type": "sensor", "temp": {"$lte": 20}}) == [
            "d1",
            "d4",
        ]


class TestTypeMismatches:
    def test_range_ops_never_match_across_types(self):
        assert _query_all_backends({"temp": {"$gt": 5}}) == ["d1", "d2"]  # not "hot"
        assert _query_all_backends({"type": {"$lt": 100}}) == []

    def test_bool_is_not_a_number(self):
        # Booleans and numbers are mutually incomparable in range ops: True
        # never satisfies a numeric bound, and numeric temps never satisfy a
        # boolean bound.
        assert _query_all_backends({"active": {"$gte": 0}}) == []
        assert _query_all_backends({"temp": {"$gte": False}}) == []

    def test_eq_across_types_is_plain_equality(self):
        assert _query_all_backends({"temp": "hot"}) == ["d3"]
        # $ne still requires the field to be present (d5 has no temp).
        assert _query_all_backends({"temp": {"$ne": "hot"}}) == ["d1", "d2", "d4"]

    def test_int_float_compare_numerically(self):
        assert _query_all_backends({"temp": {"$gt": 20, "$lt": 31}}) == ["d2"]


# ---------------------------------------------------------------------------
# Hypothesis: compiled predicate ≡ naive evaluator
# ---------------------------------------------------------------------------

FIELDS = ("a", "b", "c", "a.x", "a.y")
LEAF_VALUES = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.sampled_from(["red", "green", ""]),
    st.booleans(),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
)

DOC_STRATEGY = st.fixed_dictionaries(
    {},
    optional={
        "a": st.one_of(
            LEAF_VALUES,
            st.fixed_dictionaries({}, optional={"x": LEAF_VALUES, "y": LEAF_VALUES}),
        ),
        "b": LEAF_VALUES,
        "c": LEAF_VALUES,
    },
)

COMPARISON_OPS = ("$eq", "$ne", "$gt", "$gte", "$lt", "$lte")


def field_selector():
    op_condition = st.dictionaries(
        st.sampled_from(COMPARISON_OPS), LEAF_VALUES, min_size=1, max_size=2
    )
    exists_condition = st.fixed_dictionaries({"$exists": st.booleans()})
    in_condition = st.fixed_dictionaries(
        {"$in": st.lists(LEAF_VALUES, max_size=3)}
    )
    condition = st.one_of(LEAF_VALUES, op_condition, exists_condition, in_condition)
    return st.dictionaries(st.sampled_from(FIELDS), condition, min_size=1, max_size=2)


SELECTOR_STRATEGY = st.recursive(
    field_selector(),
    lambda children: st.one_of(
        st.fixed_dictionaries({"$and": st.lists(children, min_size=1, max_size=3)}),
        st.fixed_dictionaries({"$or": st.lists(children, min_size=1, max_size=3)}),
        st.fixed_dictionaries({"$not": children}),
    ),
    max_leaves=4,
)


@settings(max_examples=300, deadline=None)
@given(selector=SELECTOR_STRATEGY, doc=DOC_STRATEGY)
def test_compiled_predicate_equals_naive_evaluator(selector, doc):
    assert compile_selector(selector)(doc) == naive_matches(selector, doc)


@settings(max_examples=60, deadline=None)
@given(
    selector=SELECTOR_STRATEGY,
    docs=st.lists(DOC_STRATEGY, min_size=1, max_size=5),
)
def test_rich_query_identical_across_backends(selector, docs):
    results = []
    for backend in BACKENDS:
        store = create_store(backend)
        for index, doc in enumerate(docs):
            store.apply_write(f"k{index}", to_bytes(doc), Version(0, index))
        results.append(store.rich_query(selector))
        store.close()
    assert results[0] == results[1]
    expected = [
        (f"k{index}", to_bytes(doc))
        for index, doc in enumerate(docs)
        if naive_matches(selector, doc)
    ]
    assert results[0] == expected
