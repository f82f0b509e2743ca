"""Tests for the CRDT type registry and envelope serialization."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import CRDTError, MergeTypeError
from repro.crdt import (
    GCounter,
    ORSet,
    StateCRDT,
    crdt_from_bytes,
    crdt_from_dict_envelope,
    crdt_to_bytes,
    crdt_to_dict_envelope,
    merge_envelopes,
    register_crdt,
    registered_types,
)


class TestEnvelopes:
    def test_roundtrip_all_builtins(self):
        for type_name, cls in registered_types().items():
            instance = cls()
            restored = crdt_from_bytes(crdt_to_bytes(instance))
            assert type(restored) is cls, type_name

    def test_envelope_shape(self):
        envelope = crdt_to_dict_envelope(GCounter().increment("a", 2))
        assert envelope["crdt"] == "g-counter"
        assert "state" in envelope

    def test_unknown_type_rejected(self):
        with pytest.raises(MergeTypeError):
            crdt_from_dict_envelope({"crdt": "no-such-type", "state": {}})

    def test_not_an_envelope_rejected(self):
        with pytest.raises(MergeTypeError):
            crdt_from_dict_envelope({"foo": "bar"})


class TestMergeEnvelopes:
    def test_merges_same_type(self):
        left = crdt_to_bytes(GCounter().increment("a", 1))
        right = crdt_to_bytes(GCounter().increment("b", 2))
        merged = crdt_from_bytes(merge_envelopes(left, right))
        assert merged.value() == 3

    def test_mismatched_types_rejected(self):
        left = crdt_to_bytes(GCounter())
        right = crdt_to_bytes(ORSet())
        with pytest.raises(MergeTypeError):
            merge_envelopes(left, right)


class TestRegistration:
    def test_register_custom_type(self):
        class Custom(StateCRDT):
            type_name = "test-custom-type"

            def __init__(self, n=0):
                self.n = n

            def merge(self, other):
                return Custom(max(self.n, other.n))

            def value(self):
                return self.n

            def to_dict(self):
                return {"n": self.n}

            @classmethod
            def from_dict(cls, payload):
                return cls(payload["n"])

        register_crdt(Custom)
        assert registered_types()["test-custom-type"] is Custom
        register_crdt(Custom)  # idempotent

    def test_conflicting_registration_rejected(self):
        class Impostor(StateCRDT):
            type_name = "g-counter"

        with pytest.raises(MergeTypeError):
            register_crdt(Impostor)


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


@pytest.mark.parametrize("type_name", sorted(registered_types()))
def test_an_arbitrary_state_decodes_or_is_refused(type_name):
    """A committer decodes envelopes straight from client write-sets: any
    ``state`` either decodes to something that merges and writes back, or is
    refused with a ``CRDTError`` (``BAD_PAYLOAD``) — never ``KeyError`` or
    ``TypeError`` out of the commit path."""

    cls = registered_types()[type_name]

    @settings(max_examples=150, deadline=None, suppress_health_check=list(HealthCheck))
    @given(states_shaped_like(cls))
    def decode(state):
        try:
            crdt = crdt_from_dict_envelope({"crdt": type_name, "state": state})
        except CRDTError:
            return
        assert type(crdt) is cls
        crdt_to_dict_envelope(cls().merge(crdt).merge(crdt))

    decode()


@pytest.mark.parametrize(
    "state", [{"entries": {"a": -1}}, {"a": "x"}, [1, 2], {"entries": {"a": 1.5}}, None]
)
def test_malformed_g_counter_states_are_merge_type_errors(state):
    with pytest.raises(MergeTypeError):
        crdt_from_dict_envelope({"crdt": "g-counter", "state": state})
