"""Property-based tests: the merge laws of every state-based CRDT.

OR-Set, LWW-Register and RGA are join-semilattices: merge is commutative,
associative and idempotent.  The counters are operation-based — the ordered
ledger merges each write exactly once — so their merge adds: commutative and
associative with identity 0, and not idempotent.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import LamportTimestamp
from repro.crdt import GCounter, LWWRegister, ORSet, PNCounter, RGA

actors = st.sampled_from(["a", "b", "c"])
elements = st.one_of(
    st.text(max_size=6),
    st.integers(-100, 100),
    st.dictionaries(st.sampled_from(["k1", "k2"]), st.integers(0, 9), max_size=2),
)


gcounters = st.integers(0, 50).map(GCounter)
pncounters = st.integers(-50, 50).map(PNCounter)


@st.composite
def orsets(draw):
    result = ORSet()
    operations = draw(
        st.lists(st.tuples(st.booleans(), elements, st.integers(0, 99)), max_size=6)
    )
    for is_add, element, tag_num in operations:
        if is_add:
            result = result.add(element, f"tag{tag_num}")
        else:
            result = result.remove(element)
    return result


@st.composite
def lww_registers(draw):
    if draw(st.booleans()):
        return LWWRegister()
    return LWWRegister().assign(
        draw(elements), LamportTimestamp(draw(st.integers(1, 20)), draw(actors))
    )


_rga_namespace = iter(range(10**9))


@st.composite
def rgas(draw):
    # Element IDs must be globally unique across instances (the RGA
    # contract), so each generated replica gets a fresh actor namespace.
    namespace = next(_rga_namespace)
    result = RGA()
    counter = 0
    for value, actor in draw(st.lists(st.tuples(st.text(max_size=4), actors), max_size=5)):
        counter += 1
        result = result.append(LamportTimestamp(counter, f"{actor}{namespace}"), value)
    visible = result.element_ids()
    for index in draw(st.lists(st.integers(0, 10), max_size=2)):
        if visible:
            result = result.delete(visible[index % len(visible)])
    return result


COUNTER_STRATEGIES = [gcounters, pncounters]
JOIN_STRATEGIES = [orsets(), lww_registers(), rgas()]
ALL_STRATEGIES = COUNTER_STRATEGIES + JOIN_STRATEGIES

instance_pairs = st.one_of(*[st.tuples(s, s) for s in ALL_STRATEGIES])
instance_triples = st.one_of(*[st.tuples(s, s, s) for s in ALL_STRATEGIES])
join_pairs = st.one_of(*[st.tuples(s, s) for s in JOIN_STRATEGIES])
counter_pairs = st.one_of(*[st.tuples(s, s) for s in COUNTER_STRATEGIES])


def canonical(crdt) -> str:
    from repro.common.serialization import canonical_json

    return canonical_json({"state": crdt.to_dict(), "value": crdt.value()})


@settings(max_examples=150, deadline=None)
@given(instance_pairs)
def test_merge_commutative(pair):
    a, b = pair
    assert canonical(a.merge(b)) == canonical(b.merge(a))


@settings(max_examples=150, deadline=None)
@given(instance_triples)
def test_merge_associative(triple):
    a, b, c = triple
    assert canonical(a.merge(b).merge(c)) == canonical(a.merge(b.merge(c)))


@settings(max_examples=150, deadline=None)
@given(join_pairs)
def test_merge_idempotent(pair):
    a, b = pair
    merged = a.merge(b)
    assert canonical(merged.merge(merged)) == canonical(merged)
    assert canonical(merged.merge(a)) == canonical(merged)
    assert canonical(merged.merge(b)) == canonical(merged)


@settings(max_examples=100, deadline=None)
@given(counter_pairs)
def test_counter_merge_adds_with_identity_zero(pair):
    a, b = pair
    empty = type(a)()
    assert canonical(empty.merge(a)) == canonical(a) == canonical(a.merge(empty))
    assert a.merge(b).value() == a.value() + b.value()
    # Not idempotent: a write merged twice counts twice, which is why the
    # committer merges each transaction's write once (DUPLICATE_TXID).
    assert a.merge(a).value() == 2 * a.value()


@settings(max_examples=100, deadline=None)
@given(st.tuples(rgas(), rgas()))
def test_rga_merge_preserves_all_visible_elements_of_both(pair):
    a, b = pair
    merged = a.merge(b)
    # Deletions only ever happen locally before merging here, so an element
    # visible in either replica and not deleted in the other must survive.
    visible_ids = set(merged.element_ids())
    for replica, other in ((a, b), (b, a)):
        for element_id in replica.element_ids():
            deleted_in_other = (
                element_id in [e for e in other.element_ids(include_deleted=True)]
                and element_id not in other.element_ids()
            )
            if not deleted_in_other:
                assert element_id in visible_ids
