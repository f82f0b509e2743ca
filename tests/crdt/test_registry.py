"""Tests for the fixed table of state-CRDT types and the envelope codec."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import CRDTError, MergeTypeError
from repro.crdt import (
    CRDT_TYPES,
    GCounter,
    ORSet,
    StateCRDT,
    crdt_from_dict_envelope,
    crdt_to_dict_envelope,
)

from . import envelope_roundtrip


def test_the_table_holds_exactly_the_types_a_handle_writes():
    """The types a committer merges are part of the validation rule: no
    more than the ``ctx.crdt`` state handles write, no fewer."""

    from repro.contract.handles import HANDLE_KINDS

    assert {handle.crdt_cls for handle in HANDLE_KINDS.values()} == set(CRDT_TYPES.values())
    assert all(name == cls.type_name for name, cls in CRDT_TYPES.items())


class TestEnvelopes:
    def test_roundtrip_all_builtins(self):
        for type_name, cls in CRDT_TYPES.items():
            restored = envelope_roundtrip(cls())
            assert type(restored) is cls, type_name

    def test_envelope_shape(self):
        envelope = crdt_to_dict_envelope(GCounter().increment(2))
        assert envelope == {"$fabriccrdt": 1, "crdt": "g-counter", "state": {"total": 2}}

    def test_unknown_type_rejected(self):
        with pytest.raises(MergeTypeError):
            crdt_from_dict_envelope({"$fabriccrdt": 1, "crdt": "no-such-type", "state": {}})

    def test_not_an_envelope_rejected(self):
        with pytest.raises(MergeTypeError):
            crdt_from_dict_envelope({"foo": "bar"})


class TestMergeEnvelopes:
    def test_merges_same_type(self):
        left = envelope_roundtrip(GCounter().increment(1))
        right = envelope_roundtrip(GCounter().increment(2))
        assert left.merge(right).value() == 3

    def test_mismatched_types_rejected(self):
        with pytest.raises(MergeTypeError):
            envelope_roundtrip(GCounter()).merge(envelope_roundtrip(ORSet()))


# -- malformed states: refused as CRDTError, never a crash ------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=10,
)


def states_shaped_like(cls: type[StateCRDT]):
    """Arbitrary JSON, and objects with the type's own top-level keys."""

    keys = sorted(cls().to_dict())
    return st.one_of(json_values, st.fixed_dictionaries({key: json_values for key in keys}))


@pytest.mark.parametrize("type_name", sorted(CRDT_TYPES))
def test_an_arbitrary_state_decodes_or_is_refused(type_name):
    """A committer decodes envelopes straight from client write-sets: any
    ``state`` either decodes to something that merges and writes back, or is
    refused with a ``CRDTError`` (``BAD_PAYLOAD``) — never ``KeyError`` or
    ``TypeError`` out of the commit path."""

    cls = CRDT_TYPES[type_name]

    @settings(max_examples=150, deadline=None, suppress_health_check=list(HealthCheck))
    @given(states_shaped_like(cls))
    def decode(state):
        try:
            crdt = crdt_from_dict_envelope({"$fabriccrdt": 1, "crdt": type_name, "state": state})
        except CRDTError:
            return
        assert type(crdt) is cls
        crdt_to_dict_envelope(cls().merge(crdt).merge(crdt))

    decode()


@pytest.mark.parametrize(
    "state",
    [
        {"total": -1}, {"a": "x"}, [1, 2], {"total": 1.5}, None,
        {"total": True}, {"total": "3"}, {}, {"total": 1, "entries": {"a": 1}},
    ],
)
def test_malformed_g_counter_states_are_merge_type_errors(state):
    with pytest.raises(MergeTypeError):
        crdt_from_dict_envelope({"$fabriccrdt": 1, "crdt": "g-counter", "state": state})
