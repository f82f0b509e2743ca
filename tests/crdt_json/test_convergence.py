"""Property-based convergence tests for the JSON CRDT.

The central CRDT guarantee: applying the same causally-closed set of
operations, in any causality-respecting order, yields the same document.
The operations are a merge's, as Algorithm 2 names them (``reference``),
applied by the operation-based replica (``replica``).
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crdt.json import JsonDocument, merge_json

from .reference import reference_merge
from .replica import Replica, replicate

json_leaves = st.one_of(st.text(max_size=5), st.integers(0, 99))
json_objects = st.recursive(
    st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]), json_leaves, min_size=0, max_size=3
    ),
    lambda children: st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]),
        st.one_of(json_leaves, children, st.lists(st.one_of(json_leaves, children), max_size=3)),
        max_size=3,
    ),
    max_leaves=12,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(json_objects, min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_shuffled_delivery_converges(values, rng):
    source = Replica("source")
    operations = [op for value in values for op in reference_merge(source, value)]
    rng.shuffle(operations)
    replica = Replica("replica")
    replica.apply_all(operations)
    replica.require_quiescent()
    assert replica.to_plain() == source.to_plain()


@settings(max_examples=60, deadline=None)
@given(st.lists(json_objects, min_size=2, max_size=4))
def test_replication_is_deterministic(values):
    source = Replica("source")
    operations = [op for value in values for op in reference_merge(source, value)]
    replica_one = replicate(operations, "r1")
    replica_two = replicate(operations, "r2")
    assert replica_one.to_plain() == replica_two.to_plain() == source.to_plain()


def _types_compatible(a, b) -> bool:
    """True if no key path holds different JSON types in ``a`` vs ``b``.

    Type-conflicting assigns (a string vs a map under one key) are resolved
    by merge order — deterministically, but order-dependently — so the
    order-independence property below only applies to compatible values.
    """

    if isinstance(a, dict) and isinstance(b, dict):
        return all(
            _types_compatible(a[key], b[key]) for key in set(a) & set(b)
        )
    kind_a = "map" if isinstance(a, dict) else "list" if isinstance(a, list) else "leaf"
    kind_b = "map" if isinstance(b, dict) else "list" if isinstance(b, list) else "leaf"
    return kind_a == kind_b


@settings(max_examples=40, deadline=None)
@given(json_objects, json_objects)
def test_merge_order_preserves_structure_and_list_items(a, b):
    """Merging in either order keeps the same map keys and list-item
    multisets.  Leaf values assigned by both merges are order-resolved
    (the block order is authoritative and identical on every peer), so only
    set/multiset structure is order-independent — no list item or key may
    be lost either way."""

    from hypothesis import assume

    from repro.common.serialization import canonical_json

    assume(_types_compatible(a, b))

    def collect(plain, path, keys, items):
        if isinstance(plain, dict):
            for key, value in plain.items():
                keys.add((path, key))
                collect(value, f"{path}.{key}", keys, items)
        elif isinstance(plain, list):
            for item in plain:
                items.append((path, canonical_json(item)))

    def structure(plain):
        keys: set = set()
        items: list = []
        collect(plain, "$", keys, items)
        return keys, sorted(items)

    doc_ab = JsonDocument()
    merge_json(doc_ab, a)
    merge_json(doc_ab, b)
    doc_ba = JsonDocument()
    merge_json(doc_ba, b)
    merge_json(doc_ba, a)
    keys_ab, items_ab = structure(doc_ab.to_plain())
    keys_ba, items_ba = structure(doc_ba.to_plain())
    assert keys_ab == keys_ba
    assert items_ab == items_ba


@settings(max_examples=40, deadline=None)
@given(st.lists(json_objects, min_size=1, max_size=3))
def test_merging_same_value_twice_is_idempotent(values):
    doc_once = JsonDocument()
    doc_twice = JsonDocument()
    for value in values:
        merge_json(doc_once, value)
        merge_json(doc_twice, value)
        merge_json(doc_twice, value)
    assert doc_once.to_plain() == doc_twice.to_plain()


def test_deterministic_interleave_regression():
    """Fixed-seed regression: 20 values merged in two shuffled op orders."""

    source = Replica("s")
    rng = random.Random(99)
    operations = []
    for i in range(20):
        operations += reference_merge(
            source,
            {"readings": [{"t": str(rng.randint(0, 50)), "seq": str(i)}]},
        )
    for seed in range(5):
        shuffled = operations[:]
        random.Random(seed).shuffle(shuffled)
        replica = Replica(f"r{seed}")
        replica.apply_all(shuffled)
        replica.require_quiescent()
        assert replica.to_plain() == source.to_plain()
