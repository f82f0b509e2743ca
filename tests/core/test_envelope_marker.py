"""The explicit envelope marker is the only way a value is a state-CRDT envelope.

Before the marker, envelopes were recognised purely by the exact key set
``{"crdt", "state"}`` — so ordinary user JSON shaped that way was misrouted
into the state-CRDT merge path and invalidated the transaction with
``BAD_PAYLOAD``.  Envelopes now carry ``$fabriccrdt``, and a value without it
is plain JSON whatever its keys: a markerless ``{"crdt": ..., "state": ...}``
merges as a JSON document, even when it names a type a committer accepts.
"""

import json

import pytest

from repro.common.config import CRDTConfig
from repro.common.errors import MergeTypeError
from repro.core.jsonmerge import init_empty_crdt, merge_crdt
from repro.crdt.gcounter import GCounter
from repro.crdt.registry import (
    ENVELOPE_MARKER,
    crdt_from_dict_envelope,
    crdt_to_dict_envelope,
    is_dict_envelope,
)
from repro.gateway import Gateway
from repro.workload.iot import encode_call


class TestRecognition:
    def test_new_envelopes_carry_the_marker(self):
        envelope = crdt_to_dict_envelope(GCounter(1))
        assert envelope[ENVELOPE_MARKER] == 1
        assert is_dict_envelope(envelope)

    def test_user_json_with_unregistered_type_tag_is_plain_data(self):
        # Exactly the ambiguous shape: two keys named crdt/state, but the
        # "type" is just a user string.  Must merge as a JSON document.
        value = {"crdt": "certainly", "state": "california"}
        assert not is_dict_envelope(value)
        merged = init_empty_crdt("k", value, actor="b1")
        assert merged.document is not None  # JSON CRDT, not a state CRDT
        merge_crdt(merged, value, CRDTConfig())
        assert merged.values_merged == 1

    def test_user_json_with_non_string_crdt_key_is_plain_data(self):
        assert not is_dict_envelope({"crdt": {"nested": 1}, "state": 2})

    def test_markerless_envelope_is_plain_data(self):
        markerless = {"crdt": "g-counter", "state": GCounter(3).to_dict()}
        assert not is_dict_envelope(markerless)
        with pytest.raises(MergeTypeError):
            crdt_from_dict_envelope(markerless)
        assert init_empty_crdt("k", markerless).document is not None

    def test_extra_keys_without_marker_stay_plain(self):
        assert not is_dict_envelope({"crdt": "g-counter", "state": {}, "extra": 1})

    def test_marked_envelope_with_unknown_version_rejected(self):
        bad = {ENVELOPE_MARKER: 99, "crdt": "g-counter", "state": {"total": 0}}
        assert is_dict_envelope(bad)
        with pytest.raises(MergeTypeError, match="version"):
            crdt_from_dict_envelope(bad)


class TestEndToEnd:
    def test_envelope_shaped_user_json_commits_as_crdt_write(self, crdt_net):
        """The historical failure: this payload was BAD_PAYLOAD before."""

        contract = Gateway.connect(crdt_net).get_contract("iot")
        contract.submit("populate", json.dumps({"keys": ["dev"]}))
        call = encode_call(
            read_keys=["dev"],
            write_keys=["dev"],
            payload={"crdt": "userfield", "state": "userdata"},
            crdt=True,
        )
        tx = contract.submit_async("record", call)
        status = tx.commit_status()
        assert status.succeeded, status.code
        committed = crdt_net.state_of("dev")
        assert committed["crdt"] == "userfield"
        assert committed["state"] == "userdata"

    def test_markerless_counter_write_commits_as_plain_json(self, crdt_net):
        """A pre-marker counter envelope is not a counter any more: it merges
        and commits as the JSON document it is."""

        contract = Gateway.connect(crdt_net).get_contract("iot")
        contract.submit("populate", json.dumps({"keys": ["dev"]}))
        markerless = {"crdt": "g-counter", "state": GCounter(3).to_dict()}
        call = encode_call(read_keys=["dev"], write_keys=["dev"], payload=markerless, crdt=True)
        status = contract.submit_async("record", call).commit_status()
        assert status.succeeded, status.code
        committed = crdt_net.state_of("dev")
        assert ENVELOPE_MARKER not in committed
        assert committed["crdt"] == "g-counter"
        assert committed["state"] == {"total": "3"}  # a JSON leaf, stringified
