"""A block of handle deltas commits what the transactions' whole views imply.

Each transaction runs a handle invocation twice against one non-empty
committed value: once on a stub that writes deltas (a FabricCRDT peer's) and
once on a bare stub, which writes the whole view.  The delta block goes
through Algorithm 1 (``validate_merge_block``); the expected value is
computed here from the whole views.  For the OR-Set it is the committed state
joined with every view, and Algorithm 1 on the whole-state block must agree.
For a counter it is the committed total plus each view's own amount (its
view minus the committed total): the committer adds every write once, so a
whole view would count the committed total again — which is why a counter
handle ships its amount where the committer merges.
"""

from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CRDTConfig
from repro.common.serialization import from_bytes, to_bytes
from repro.contract import Contract
from repro.core.blockmerge import validate_merge_block
from repro.crdt.gcounter import GCounter
from repro.crdt.orset import ORSet
from repro.crdt.pncounter import PNCounter
from repro.crdt.registry import crdt_from_dict_envelope, crdt_to_dict_envelope
from repro.fabric.block import Block
from repro.fabric.chaincode import ShimStub

from ..fabric.helpers import build_peer, endorsed_tx, seed_state


class AnyHandles(Contract):
    name = "any"


actors = st.one_of(st.none(), st.sampled_from(["shared", "a", "b"]))
elements = st.sampled_from(["x", "y", "z", 7])


def _counter_tx(ctx, ops):
    for actor, amount in ops:
        ctx.crdt.counter("k").incr(amount, actor=actor)


def _pn_tx(ctx, ops):
    for amount in ops:
        ctx.crdt.pn_counter("k").adjust(amount)


def _set_tx(ctx, ops):
    for is_add, element in ops:
        if is_add:
            ctx.crdt.set("k").add(element)
        else:
            ctx.crdt.set("k").discard(element)


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(["counter", "pn", "set"]))
    if kind == "counter":
        committed = GCounter(draw(st.integers(1, 90)))
        op = st.tuples(actors, st.integers(0, 5))
        run = _counter_tx
    elif kind == "pn":
        committed = PNCounter(draw(st.integers(-90, 90)))
        op = st.integers(-5, 5)
        run = _pn_tx
    else:
        committed = ORSet()
        for index, element in enumerate(draw(st.lists(elements, min_size=1, max_size=5))):
            committed = committed.add(element, f"committed-{index}")
        committed = committed.remove(draw(elements))
        op = st.tuples(st.booleans(), elements)
        run = _set_tx
    txs = draw(st.lists(st.lists(op, min_size=1, max_size=3), min_size=1, max_size=5))
    return committed, run, txs


def _commit(peer, rwsets) -> bytes:
    """Algorithm 1 on a block of ``rwsets``: the bytes every CRDT write commits."""

    txs = tuple(endorsed_tx(peer, rwset, nonce) for nonce, rwset in enumerate(rwsets))
    block = Block.build(peer.ledger.height, peer.ledger.last_hash, txs)
    plan = validate_merge_block(block, [None] * len(txs), peer.ledger.state, CRDTConfig())
    assert plan.skip_mvcc == frozenset(range(len(txs)))
    committed = {writes[0].value for writes in plan.replacement_writes.values()}
    assert len(committed) == 1
    return committed.pop()


@settings(max_examples=60, deadline=None)
@given(case=cases())
def test_a_block_of_deltas_commits_the_whole_state_bytes(case):
    committed, run, txs = case
    peer = build_peer()
    seed_state(peer, "k", crdt_to_dict_envelope(committed))
    delta_rwsets, whole_rwsets = [], []
    for index, ops in enumerate(txs):
        for crdt_deltas, rwsets in ((True, delta_rwsets), (False, whole_rwsets)):
            stub = ShimStub(peer.ledger.state, f"tx{index}", crdt_deltas=crdt_deltas)
            run(AnyHandles().new_context(stub), ops)
            rwsets.append(stub.build_rwset())

    views = [crdt_from_dict_envelope(from_bytes(r.writes[0].value)) for r in whole_rwsets]
    if isinstance(committed, ORSet):
        expected_state = reduce(ORSet.merge, views, committed)
    else:
        amounts = [view.value() - committed.value() for view in views]
        expected_state = type(committed)(committed.value() + sum(amounts))
    expected = to_bytes(crdt_to_dict_envelope(expected_state))
    assert _commit(peer, delta_rwsets) == expected
    if isinstance(committed, ORSet):
        assert _commit(peer, whole_rwsets) == expected
    if not isinstance(committed, PNCounter):  # -5 onto 5 writes a shorter 0
        shipped = sum(len(w.value) for r in delta_rwsets for w in r.writes)
        assert shipped <= sum(len(w.value) for r in whole_rwsets for w in r.writes)


def test_a_vote_over_a_full_grown_counter_ships_one_entry():
    """The perf workload's shape: 250 voters committed, one more vote."""

    peer = build_peer()
    seed_state(peer, "k", crdt_to_dict_envelope(GCounter(500)))  # two votes each
    stub = ShimStub(peer.ledger.state, "tx", crdt_deltas=True)
    AnyHandles().new_context(stub).crdt.counter("k").incr(actor="voter-9")
    (write,) = stub.build_rwset().writes
    assert from_bytes(write.value)["state"] == {"total": 1}
    assert from_bytes(_commit(peer, [stub.build_rwset()]))["state"] == {"total": 501}
