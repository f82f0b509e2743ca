"""Tests for the Algorithm 2 wrapper and CRDT-kind detection."""

import pytest

from repro.common.config import CRDTConfig
from repro.common.errors import MergeTypeError, UnsupportedValueError
from repro.common.serialization import from_bytes
from repro.core.jsonmerge import init_empty_crdt, merge_crdt, merge_options, merge_value_bytes
from repro.crdt import GCounter, ORSet
from repro.crdt.registry import crdt_to_dict_envelope, is_dict_envelope


class TestKindDetection:
    def test_json_object_is_not_envelope(self):
        assert not is_dict_envelope({"deviceID": "x"})

    def test_envelope_detected(self):
        assert is_dict_envelope(crdt_to_dict_envelope(GCounter()))

    def test_envelope_requires_exact_keys(self):
        assert not is_dict_envelope({"crdt": "g-counter"})
        assert not is_dict_envelope({"crdt": "g-counter", "state": {}, "extra": 1})

    def test_init_json_kind(self):
        merged = init_empty_crdt("k", {"a": "1"}, actor="b0")
        assert merged.kind == "json"
        assert merged.document is not None

    def test_init_envelope_kind_starts_empty(self):
        envelope = crdt_to_dict_envelope(GCounter(5))
        merged = init_empty_crdt("k", envelope, actor="b0")
        assert merged.kind == "state"
        assert merged.state_crdt.value() == 0  # InitEmptyCRDT: empty, not 5

    def test_init_reads_the_type_tag_without_decoding_the_state(self):
        # The state is decoded once, by the merge that follows.
        envelope = {"$fabriccrdt": 1, "crdt": "or-set", "state": "not decoded here"}
        assert type(init_empty_crdt("k", envelope, "probe").state_crdt) is ORSet

    @pytest.mark.parametrize(
        "envelope",
        [
            {"$fabriccrdt": 1, "crdt": "no-such-type", "state": {}},
            {"$fabriccrdt": 1, "crdt": ["g-counter"], "state": {}},
            {"$fabriccrdt": 2, "crdt": "g-counter", "state": {"total": 1}},
        ],
    )
    def test_init_refuses_an_envelope_it_cannot_type(self, envelope):
        with pytest.raises(MergeTypeError):
            init_empty_crdt("k", envelope, "probe")

    def test_init_scalar_rejected(self):
        with pytest.raises(UnsupportedValueError):
            init_empty_crdt("k", "just a string", actor="b0")


class TestMergeCRDT:
    def test_json_values_accumulate(self):
        merged = init_empty_crdt("k", {"l": ["a"]}, actor="b0")
        config = CRDTConfig()
        applied_first = merge_crdt(merged, {"l": ["a"]}, config)
        applied_second = merge_crdt(merged, {"l": ["b"]}, config)
        assert merged.values_merged == 2
        assert merged.document.to_plain() == {"l": ["a", "b"]}
        assert applied_first == applied_second == 2  # assign-container l + one insert

    def test_envelope_values_merge_lattice(self):
        envelope_a = crdt_to_dict_envelope(ORSet().add("x", "t1"))
        envelope_b = crdt_to_dict_envelope(ORSet().add("y", "t2"))
        merged = init_empty_crdt("k", envelope_a, actor="b0")
        config = CRDTConfig()
        assert merge_crdt(merged, envelope_a, config) == 0  # no JSON operation
        merge_crdt(merged, envelope_b, config)
        merge_crdt(merged, envelope_a, config)  # a join: a repeat changes nothing
        assert sorted(merged.state_crdt.value()) == ["x", "y"]

    def test_counter_envelopes_add(self):
        merged = init_empty_crdt("k", crdt_to_dict_envelope(GCounter(2)), actor="b0")
        for amount in (2, 3, 2):
            merge_crdt(merged, crdt_to_dict_envelope(GCounter(amount)), CRDTConfig())
        assert merged.state_crdt.value() == 7
        assert from_bytes(merged.to_committed_bytes())["state"] == {"total": 7}

    def test_kind_mismatch_raises(self):
        merged = init_empty_crdt("k", {"l": []}, actor="b0")
        with pytest.raises(MergeTypeError):
            merge_crdt(merged, crdt_to_dict_envelope(GCounter()), CRDTConfig())
        envelope_merged = init_empty_crdt(
            "k", crdt_to_dict_envelope(GCounter()), actor="b0"
        )
        with pytest.raises(MergeTypeError):
            merge_crdt(envelope_merged, {"json": "object"}, CRDTConfig())

    def test_scalar_value_rejected(self):
        merged = init_empty_crdt("k", {"l": []}, actor="b0")
        with pytest.raises(UnsupportedValueError):
            merge_crdt(merged, "scalar", CRDTConfig())

    def test_merge_value_bytes_decodes(self):
        from repro.common.serialization import to_bytes

        merged = init_empty_crdt("k", {"l": []}, actor="b0")
        merge_value_bytes(merged, to_bytes({"l": ["x"]}), CRDTConfig())
        assert merged.document.to_plain() == {"l": ["x"]}


class TestCommittedBytes:
    def test_json_commits_plain_value(self):
        merged = init_empty_crdt("k", {"l": ["a"]}, actor="b0")
        merge_crdt(merged, {"l": ["a"]}, CRDTConfig())
        committed = from_bytes(merged.to_committed_bytes())
        assert committed == {"l": ["a"]}
        assert "crdt" not in committed  # metadata stripped

    def test_envelope_commits_envelope(self):
        envelope = crdt_to_dict_envelope(GCounter(1))
        merged = init_empty_crdt("k", envelope, actor="b0")
        merge_crdt(merged, envelope, CRDTConfig())
        committed = from_bytes(merged.to_committed_bytes())
        assert committed["crdt"] == "g-counter"  # envelopes keep their metadata

    def test_envelope_type_preserved(self):
        envelope = crdt_to_dict_envelope(ORSet().add("x", "t1"))
        merged = init_empty_crdt("k", envelope, actor="b0")
        merge_crdt(merged, envelope, CRDTConfig())
        committed = from_bytes(merged.to_committed_bytes())
        assert committed["crdt"] == "or-set"


class TestOptions:
    def test_merge_options_translation(self):
        config = CRDTConfig(dedup_identical=False, stringify_scalars=False)
        options = merge_options(config)
        assert not options.dedup_identical
        assert not options.stringify_scalars
