"""The committer's fold against the tree it replaced.

``repro.crdt.json`` merges into plain JSON and keeps only what a sequential
merge needs; the Kleppmann–Beresford tree (``tree``) is its specification.
Starting from a fresh document — or one seeded with a plain value first, as
``seed_from_state`` does — both take the same merges: both ``MergeOptions``,
redeliveries, leaf↔container clashes, keys the path text must quote, and
renderings in between.  After every merge the counts and ``DocumentStats``
must be equal; after every rendering the plain values too; at the end the
applied content IDs, the plain value (key order included), the committed
bytes and the stats after rendering.

The property sets no ``max_examples``: it takes its budget from the
hypothesis profile, and CI runs it again under the ``deep`` profile
(``tests/conftest.py``).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.serialization import to_bytes
from repro.core.jsonmerge import MergedKey
from repro.crdt.json import JsonDocument, MergeOptions, is_content_id, merge_json

from . import tree

#: Few keys, so a key meets values of every kind (the clashes); and keys
#: holding what the path text quotes — unquoted, ``"a.b"`` would read like
#: the path ``a`` → ``b``.
keys = st.sampled_from(["a", "b", "c", "a.b", "b[0]", 'q"', "\\", "n\x00"])
leaves = st.one_of(
    st.sampled_from(["x", "y", ""]),  # few distinct strings: identical list items repeat
    st.integers(-2, 2),
    st.booleans(),
    st.none(),
)
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.dictionaries(keys, children, max_size=3),
        st.lists(children, max_size=4),
        st.lists(children, max_size=2).map(tuple),  # any Sequence is a list
    ),
    max_leaves=12,
)
objects = st.dictionaries(keys, values, max_size=4)


@settings(deadline=None)
@given(
    st.one_of(st.none(), objects),
    st.lists(st.tuples(objects, st.booleans(), st.booleans()), min_size=1, max_size=6),
    st.booleans(),
)
def test_fold_equals_the_tree(seed, merges, dedup):
    options = MergeOptions(dedup_identical=dedup)
    fold, spec = JsonDocument(), tree.TreeDocument("b7")
    if seed is not None:
        merges = [(seed, False, False), *merges]
    for value, redelivered, render in merges:
        for _ in range(1 + redelivered):
            assert merge_json(fold, value, options) == tree.merge_json(spec, value, options)
            assert fold.stats == spec.stats
        if render:
            assert fold.to_plain() == spec.to_plain()
            assert fold.stats == spec.stats

    assert fold.applied_ids == {i for i in spec.applied_ids if is_content_id(i)}
    committed = MergedKey("k", document=fold).to_committed_bytes()
    plain = spec.to_plain()
    assert committed == to_bytes(plain)
    assert repr(fold.to_plain()) == repr(plain)
    assert fold.stats == spec.stats
