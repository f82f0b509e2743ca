"""Property tests: every handle round-trips its envelope, over an empty key
and over a committed value (where a delta differs from the whole state);
every registered CRDT type merges commutatively and idempotently through the
envelope path.

These run the exact byte path the committer uses — handle mutation →
``put_crdt`` envelope → :func:`merge_envelopes` — rather than calling
``merge`` on in-memory objects, so serialization bugs cannot hide behind
object identity.
"""

from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.serialization import canonical_json, from_bytes, to_bytes
from repro.common.types import Version
from repro.contract import Contract
from repro.crdt.base import StateCRDT
from repro.crdt.gcounter import GCounter
from repro.crdt.gset import GSet
from repro.crdt.lwwregister import LWWRegister
from repro.crdt.mvregister import MVRegister
from repro.crdt.ormap import ORMap
from repro.crdt.orset import ORSet
from repro.crdt.pncounter import PNCounter
from repro.crdt.registry import (
    crdt_from_dict_envelope,
    merge_envelopes,
    registered_types,
)
from repro.crdt.rga import HEAD, RGA
from repro.crdt.text import TextDocument
from repro.crdt.twophase import TwoPhaseSet
from repro.common.clock import LamportTimestamp
from repro.fabric.chaincode import ShimStub
from repro.fabric.store import MemoryStore


class AnyHandles(Contract):
    name = "any"


def seeded_ctx(committed: Optional[StateCRDT], crdt_deltas: bool, tx_id: str = "tx1"):
    """A context whose key ``k`` holds ``committed`` (absent for ``None``)."""

    db = MemoryStore()
    if committed is not None:
        db.apply_write("k", committed.to_bytes(), Version(0, 0))
    return AnyHandles().new_context(ShimStub(db, tx_id, crdt_deltas=crdt_deltas))


actors = st.sampled_from(["a", "b", "c", "d"])
amounts = st.integers(min_value=0, max_value=50)
deltas = st.integers(min_value=-50, max_value=50)
elements = st.one_of(st.text(max_size=6), st.integers(min_value=-9, max_value=9))
texts = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=8
)
committed_gcounters = st.one_of(
    st.none(), st.dictionaries(actors, amounts, min_size=1).map(GCounter)
)
committed_pncounters = st.one_of(
    st.none(),
    st.builds(
        lambda p, n: PNCounter(GCounter(p), GCounter(n)),
        st.dictionaries(actors, amounts, min_size=1),
        st.dictionaries(actors, amounts),
    ),
)


@st.composite
def committed_orsets(draw):
    """``None`` or a committed OR-Set; its tags never collide with a handle's."""

    added = draw(st.lists(elements, max_size=6))
    orset = ORSet()
    for index, element in enumerate(added):
        orset = orset.add(element, f"committed-{index}")
    for element in draw(st.lists(st.sampled_from(added), max_size=3) if added else st.just([])):
        orset = orset.remove(element)
    return draw(st.sampled_from([None, orset]))


# ---------------------------------------------------------------------------
# Round-trip: handle mutations → envelope bytes → the committed state the
# merging committer (or, for a whole-state write, the vanilla peer) would
# store — over an empty key and over a non-empty committed value, with the
# stub writing deltas and writing whole states.
# ---------------------------------------------------------------------------


def _written_envelope(stub: ShimStub, key: str) -> dict:
    writes = [w for w in stub.build_rwset().writes if w.key == key]
    assert len(writes) == 1 and writes[0].is_crdt
    return from_bytes(writes[0].value)


def _stored(ctx, committed: Optional[StateCRDT]) -> StateCRDT:
    """What the key holds after the write commits: on a delta stub the
    committer's merge into the committed value, else the write itself."""

    written = crdt_from_dict_envelope(_written_envelope(ctx.stub, "k"))
    if ctx.stub.crdt_deltas and committed is not None:
        return committed.merge(written)
    return written


@settings(max_examples=40, deadline=None)
@given(
    committed=committed_gcounters,
    crdt_deltas=st.booleans(),
    ops=st.lists(st.tuples(actors, amounts), min_size=1, max_size=8),
)
def test_counter_handle_roundtrip(committed, crdt_deltas, ops):
    ctx = seeded_ctx(committed, crdt_deltas)
    handle = ctx.crdt.counter("k")
    for actor, amount in ops:
        handle.incr(amount, actor=actor)
    expected = (committed.value() if committed is not None else 0) + sum(a for _, a in ops)
    assert _stored(ctx, committed).value() == handle.value() == expected


@settings(max_examples=40, deadline=None)
@given(
    committed=committed_pncounters,
    crdt_deltas=st.booleans(),
    ops=st.lists(st.tuples(actors, deltas), min_size=1, max_size=8),
)
def test_pn_counter_handle_roundtrip(committed, crdt_deltas, ops):
    ctx = seeded_ctx(committed, crdt_deltas)
    handle = ctx.crdt.pn_counter("k")
    for actor, delta in ops:
        handle.adjust(delta, actor=actor)
    expected = (committed.value() if committed is not None else 0) + sum(d for _, d in ops)
    assert _stored(ctx, committed).value() == handle.value() == expected


@settings(max_examples=40, deadline=None)
@given(
    committed=committed_orsets(),
    crdt_deltas=st.booleans(),
    ops=st.lists(st.tuples(st.booleans(), elements), min_size=1, max_size=8),
)
def test_set_handle_roundtrip(committed, crdt_deltas, ops):
    ctx = seeded_ctx(committed, crdt_deltas)
    handle = ctx.crdt.set("k")
    reference = {canonical_json(e): e for e in (committed.value() if committed else [])}
    for is_add, element in ops:
        if is_add:
            handle.add(element)
            reference[canonical_json(element)] = element
        else:
            handle.discard(element)
            reference.pop(canonical_json(element), None)
    expected = sorted(reference)
    assert sorted(map(canonical_json, _stored(ctx, committed).value())) == expected
    assert sorted(map(canonical_json, handle.elements())) == expected


@settings(max_examples=40, deadline=None)
@given(
    committed=st.one_of(
        st.none(), texts.map(lambda v: LWWRegister(v, LamportTimestamp(3, "genesis")))
    ),
    crdt_deltas=st.booleans(),
    values=st.lists(texts, min_size=1, max_size=6),
)
def test_register_handle_roundtrip(committed, crdt_deltas, values):
    ctx = seeded_ctx(committed, crdt_deltas)
    handle = ctx.crdt.register("k")
    for value in values:
        handle.assign(value)
    # A register ships its whole state whatever the stub allows.
    decoded = crdt_from_dict_envelope(_written_envelope(ctx.stub, "k"))
    assert decoded.value() == handle.value() == values[-1]


@settings(max_examples=30, deadline=None)
@given(
    committed=st.one_of(st.none(), texts.map(lambda t: TextDocument("genesis").append(t))),
    crdt_deltas=st.booleans(),
    lines=st.lists(texts, min_size=1, max_size=5),
)
def test_text_handle_roundtrip(committed, crdt_deltas, lines):
    ctx = seeded_ctx(committed, crdt_deltas)
    handle = ctx.crdt.text("k")
    for line in lines:
        handle.append(line)
    # Text ships its whole state whatever the stub allows.
    decoded = crdt_from_dict_envelope(_written_envelope(ctx.stub, "k"))
    prefix = committed.text() if committed is not None else ""
    assert decoded.text() == handle.text() == prefix + "".join(lines)


# ---------------------------------------------------------------------------
# Merge laws through envelope bytes, for every registered CRDT type.
# ---------------------------------------------------------------------------


# Builders take (ops, salt): ``salt`` namespaces actors/tags/element IDs per
# replica, honouring the CRDT contract that IDs are globally unique — two
# replicas never mint the same (RGA element / OR tag / Lamport stamp) for
# different content.  Element *values* stay shared so merges genuinely
# overlap.


def _gcounter(rng_ops, salt) -> StateCRDT:
    crdt = GCounter()
    for actor, amount in rng_ops:
        crdt = crdt.increment(actor, amount)
    return crdt


def _pncounter(rng_ops, salt) -> StateCRDT:
    crdt = PNCounter()
    for actor, amount in rng_ops:
        crdt = crdt.increment(actor, amount) if amount >= 0 else crdt.decrement(actor, -amount)
    return crdt


def _gset(rng_ops, salt) -> StateCRDT:
    crdt = GSet()
    for actor, amount in rng_ops:
        crdt = crdt.add(f"{actor}{amount}")
    return crdt


def _twophase(rng_ops, salt) -> StateCRDT:
    crdt = TwoPhaseSet()
    for index, (actor, amount) in enumerate(rng_ops):
        crdt = crdt.add(f"{actor}{amount}")
        if index % 3 == 2:
            crdt = crdt.remove(f"{actor}{amount}")
    return crdt


def _orset(rng_ops, salt) -> StateCRDT:
    crdt = ORSet()
    for index, (actor, amount) in enumerate(rng_ops):
        crdt = crdt.add(f"e{amount}", f"{salt}{actor}-{index}")
        if index % 3 == 2:
            crdt = crdt.remove(f"e{amount}")
    return crdt


def _lww(rng_ops, salt) -> StateCRDT:
    crdt = LWWRegister()
    for index, (actor, amount) in enumerate(rng_ops):
        crdt = crdt.assign(f"v{amount}", LamportTimestamp(index + 1, f"{salt}{actor}"))
    return crdt


def _mv(rng_ops, salt) -> StateCRDT:
    crdt = MVRegister()
    for actor, amount in rng_ops:
        crdt = crdt.assign(f"v{amount}", f"{salt}{actor}")
    return crdt


def _rga(rng_ops, salt) -> StateCRDT:
    crdt = RGA()
    anchor = HEAD
    for index, (actor, amount) in enumerate(rng_ops):
        element_id = LamportTimestamp(index + 1, f"{salt}{actor}")
        crdt = crdt.insert_after(anchor, element_id, f"c{amount}")
        anchor = element_id
    return crdt


def _text(rng_ops, salt) -> StateCRDT:
    document = TextDocument(salt)
    for actor, amount in rng_ops:
        document = document.fork(f"{salt}{actor}").append(chr(97 + amount % 26))
    return document


def _ormap(rng_ops, salt) -> StateCRDT:
    crdt = ORMap()
    for index, (actor, amount) in enumerate(rng_ops):
        crdt = crdt.update(
            f"k{amount % 3}", GCounter().increment(actor, amount), f"{salt}{actor}-{index}"
        )
    return crdt


BUILDERS = {
    "g-counter": _gcounter,
    "pn-counter": _pncounter,
    "g-set": _gset,
    "2p-set": _twophase,
    "or-set": _orset,
    "lww-register": _lww,
    "mv-register": _mv,
    "rga": _rga,
    "text-document": _text,
    "or-map": _ormap,
}


def test_every_registered_type_has_a_builder():
    """If a new CRDT type registers, this suite must learn to exercise it."""

    assert set(BUILDERS) == set(registered_types())


@settings(max_examples=25, deadline=None)
@given(
    type_name=st.sampled_from(sorted(BUILDERS)),
    ops_a=st.lists(st.tuples(actors, amounts), min_size=1, max_size=6),
    ops_b=st.lists(st.tuples(actors, amounts), min_size=1, max_size=6),
)
def test_envelope_merge_commutative_and_idempotent(type_name, ops_a, ops_b):
    build = BUILDERS[type_name]
    left = to_bytes(
        {"$fabriccrdt": 1, "crdt": type_name, "state": build(ops_a, "L").to_dict()}
    )
    right = to_bytes(
        {"$fabriccrdt": 1, "crdt": type_name, "state": build(ops_b, "R").to_dict()}
    )

    ab = merge_envelopes(left, right)
    ba = merge_envelopes(right, left)
    decoded_ab = crdt_from_dict_envelope(from_bytes(ab))
    decoded_ba = crdt_from_dict_envelope(from_bytes(ba))
    # Commutative on the user-facing value (internal layout may order-differ).
    assert to_bytes(_normalized(decoded_ab)) == to_bytes(_normalized(decoded_ba))
    # Idempotent: merging the merge with either input changes nothing.
    assert _normalized(crdt_from_dict_envelope(from_bytes(merge_envelopes(ab, left)))) == (
        _normalized(decoded_ab)
    )


def _normalized(crdt: StateCRDT):
    payload = crdt.to_dict()
    # A text document records which replica holds it; merge(a, b) keeps a's
    # actor and merge(b, a) keeps b's.  The merged *content* must agree.
    payload.pop("actor", None)
    return payload
