"""δ-mutator laws for the OR-Set, whose handle ships deltas, and the
operation laws for the counters, whose handles ship their amounts.

A δ-mutator returns only what a mutation changed (Almeida et al., delta-state
CRDTs).  For a committed state S, a mutation sequence m applied δ-mutator by
δ-mutator (each on the state the previous ones produced) with the deltas
joined into δ, and any S′ ⊒ S:

* ``S ⊔ δ == m(S)`` — merging the delta into the committed state gives what
  the whole-state mutation gives;
* ``S′ ⊔ δ == S′ ⊔ m(S)`` — and so does merging it into any later state,
  which is what the committer does when it seeds a key from a committed
  value newer than the one the transaction read.

``m(S)`` is computed here by a reference rule written on the serialized
payload, not by the classes' own mutators (those are ``merge(δ)`` and would
make the first law a tautology).  States are compared as canonical bytes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.serialization import canonical_json, to_bytes
from repro.crdt.gcounter import GCounter
from repro.crdt.orset import ORSet
from repro.crdt.pncounter import PNCounter

elements = st.sampled_from(["x", "y", 3, None, ["l"], {"m": 1}])
set_ops = st.lists(st.tuples(st.booleans(), elements), max_size=8)


def _bytes(crdt) -> bytes:
    return to_bytes(crdt.to_dict())


def _run(state, mutations, delta_of):
    """Apply ``mutations`` through ``delta_of``: the final state and the
    join of the deltas."""

    delta = type(state)()
    for mutation in mutations:
        step = delta_of(state, mutation)
        state, delta = state.merge(step), delta.merge(step)
    return state, delta


def _check_laws(committed, later, mutations, delta_of, reference):
    mutated, delta = _run(committed, mutations, delta_of)
    expected = reference(committed, mutations)
    assert _bytes(committed.merge(delta)) == to_bytes(expected)
    assert _bytes(mutated) == to_bytes(expected)  # the full mutator is merge(δ)
    full = type(committed).from_dict(expected)
    assert _bytes(later.merge(delta)) == _bytes(later.merge(full))


# -- counters: operations, not δ-mutators -------------------------------------
#
# A counter handle ships the sum of its increments, and the committer adds it
# once per transaction.  The laws are the monoid's: ``S ⊕ δ == m(S)``, and a
# later committed total S′ gains exactly the invocation's amount — not
# ``S′ ⊕ m(S)``, which would count S twice.


def _counter_rule(state, amounts) -> dict:
    return {"total": state.to_dict()["total"] + sum(amounts)}


def _check_counter_laws(committed, later, amounts):
    cls = type(committed)
    mutated, delta = _run(committed, amounts, lambda _state, amount: cls(amount))
    expected = to_bytes(_counter_rule(committed, amounts))
    assert _bytes(committed.merge(delta)) == expected
    assert _bytes(mutated) == expected
    assert _bytes(later.merge(delta)) == to_bytes(_counter_rule(later, amounts))


totals = st.integers(min_value=0, max_value=400)
increments = st.lists(st.integers(min_value=0, max_value=9), max_size=8)
adjustments = st.lists(st.integers(min_value=-9, max_value=9), max_size=8)


@settings(max_examples=80, deadline=None)
@given(committed=totals, mutations=increments, extra=increments)
def test_gcounter_increment_delta_laws(committed, mutations, extra):
    state = GCounter(committed)
    later = GCounter.from_dict(_counter_rule(state, extra))
    _check_counter_laws(state, later, mutations)


def test_gcounter_delta_is_the_amount():
    # Whatever the committed total (250 voters, two votes each), a vote's
    # operation is +1: it does not grow with the number of voters.
    state = GCounter(500)
    assert state.increment(1) == state.merge(GCounter(1))
    assert GCounter(1).to_dict() == {"total": 1}


@settings(max_examples=80, deadline=None)
@given(committed=st.integers(-400, 400), mutations=adjustments, extra=adjustments)
def test_pncounter_delta_laws(committed, mutations, extra):
    state = PNCounter(committed)
    later = PNCounter.from_dict(_counter_rule(state, extra))
    _check_counter_laws(state, later, mutations)


def test_pncounter_delta_is_one_entry():
    state = PNCounter(4)
    assert state.decrement(1) == state.merge(PNCounter(-1))
    assert PNCounter(-1).to_dict() == {"total": -1}
    assert state.increment(-4) == state.decrement(4)


# -- OR-Set -------------------------------------------------------------------


def _tagged(ops, prefix: str):
    """Give every add a globally unique tag (the OR-Set's contract)."""

    return [(is_add, element, f"{prefix}{i}") for i, (is_add, element) in enumerate(ops)]


def _orset_rule(state: ORSet, mutations) -> dict:
    payload = state.to_dict()
    adds = {key: dict(tags) for key, tags in payload["adds"].items()}
    tombstones = {key: set(tags) for key, tags in payload["tombstones"].items()}
    for is_add, element, tag in mutations:
        key = canonical_json(element)
        if is_add:
            adds.setdefault(key, {})[tag] = element
        elif adds.get(key):
            tombstones.setdefault(key, set()).update(adds[key])
    return {
        "adds": adds,
        "tombstones": {key: sorted(tags) for key, tags in tombstones.items()},
    }


def _orset_delta(state: ORSet, mutation) -> ORSet:
    is_add, element, tag = mutation
    return state.add_delta(element, tag) if is_add else state.remove_delta(element)


@settings(max_examples=80, deadline=None)
@given(committed=set_ops, mutations=set_ops, extra=set_ops)
def test_orset_delta_laws(committed, mutations, extra):
    state = ORSet.from_dict(_orset_rule(ORSet(), _tagged(committed, "s")))
    later = ORSet.from_dict(_orset_rule(state, _tagged(extra, "x")))
    _check_laws(state, later, _tagged(mutations, "m"), _orset_delta, _orset_rule)


def test_orset_remove_delta_holds_only_the_observed_tombstones():
    state = ORSet().add("x", "t1").add("x", "t2").add("y", "t3")
    assert state.remove_delta("x").to_dict() == {
        "adds": {},
        "tombstones": {canonical_json("x"): ["t1", "t2"]},
    }
    assert state.remove_delta("absent").to_dict() == {"adds": {}, "tombstones": {}}
    assert state.add_delta("z", "t4").to_dict() == {
        "adds": {canonical_json("z"): {"t4": "z"}},
        "tombstones": {},
    }
