"""Tests for the IoT chaincode functions and payload builders."""

import json

import pytest

from repro.common.errors import ChaincodeError
from repro.common.serialization import to_bytes
from repro.common.types import Version
from repro.fabric.chaincode import ShimStub
from repro.fabric.store import MemoryStore
from repro.workload.iot import (
    IoTChaincode,
    encode_call,
    initial_device_state,
    nested_payload,
    reading_payload,
)


@pytest.fixture
def state():
    db = MemoryStore()
    db.apply_write("dev", to_bytes(initial_device_state("dev")), Version(0, 0))
    return db


def invoke(state, function, call):
    stub = ShimStub(state, "tx1")
    result = IoTChaincode().invoke(stub, function, (json.dumps(call),))
    return stub.build_rwset(), result


class TestRecord:
    def test_reads_and_writes_configured_keys(self, state):
        call = {
            "read_keys": ["dev"],
            "write_keys": ["dev"],
            "payload": reading_payload("dev", 20, 0),
            "crdt": True,
        }
        rwset, result = invoke(state, "record", call)
        assert rwset.read_keys == ("dev",)
        assert rwset.write_keys == ("dev",)
        assert rwset.writes[0].is_crdt
        assert result == {"written": ["dev"]}

    def test_device_id_rewritten_per_key(self, state):
        call = {
            "read_keys": [],
            "write_keys": ["a", "b"],
            "payload": reading_payload("template", 20, 0),
            "crdt": False,
        }
        rwset, _ = invoke(state, "record", call)
        from repro.common.serialization import from_bytes

        values = {w.key: from_bytes(w.value) for w in rwset.writes}
        assert values["a"]["deviceID"] == "a"
        assert values["b"]["deviceID"] == "b"

    def test_malformed_argument_rejected(self, state):
        stub = ShimStub(state, "tx1")
        with pytest.raises(ChaincodeError):
            IoTChaincode().invoke(stub, "record", ("{not json",))
        with pytest.raises(ChaincodeError):
            IoTChaincode().invoke(stub, "record", (json.dumps(["list"]),))


class TestRecordAccumulate:
    def test_appends_to_read_state(self, state):
        state.apply_write(
            "dev",
            to_bytes({"deviceID": "dev", "tempReadings": [{"temperature": "9", "ts": "x"}]}),
            Version(1, 0),
        )
        call = {
            "read_keys": ["dev"],
            "write_keys": ["dev"],
            "payload": reading_payload("dev", 20, 1),
            "crdt": True,
        }
        rwset, _ = invoke(state, "record_accumulate", call)
        from repro.common.serialization import from_bytes

        written = from_bytes(rwset.writes[0].value)
        assert [r["temperature"] for r in written["tempReadings"]] == ["9", "20"]

    def test_missing_key_starts_fresh(self, state):
        call = {
            "read_keys": ["ghost"],
            "write_keys": ["ghost"],
            "payload": reading_payload("ghost", 21, 0),
            "crdt": False,
        }
        rwset, _ = invoke(state, "record_accumulate", call)
        from repro.common.serialization import from_bytes

        written = from_bytes(rwset.writes[0].value)
        assert written["deviceID"] == "ghost"
        assert len(written["tempReadings"]) == 1


class TestPopulateAndRead:
    def test_populate_writes_initial_state(self, state):
        rwset, result = invoke(state, "populate", {"keys": ["x", "y"]})
        assert result == {"populated": 2}
        assert rwset.write_keys == ("x", "y")

    def test_read_device(self, state):
        _, result = invoke(state, "read_device", {"key": "dev"})
        assert result == initial_device_state("dev")


class TestPayloadBuilders:
    def test_reading_payload_shape(self):
        payload = reading_payload("d", 25, 7)
        assert payload == {
            "deviceID": "d",
            "tempReadings": [{"temperature": "25", "ts": "7"}],
        }

    def test_nested_payload_depth(self):
        payload = nested_payload(2, 4, 10, 0)
        node = payload["temperatureRoom1"]
        depth = 1
        while isinstance(node, list):
            node = list(node[0].values())[0]
            depth += 1
        assert depth == 4
        assert node == "10#0"

    def test_nested_payload_validation(self):
        with pytest.raises(ValueError):
            nested_payload(0, 3, 10, 0)
        with pytest.raises(ValueError):
            nested_payload(2, 0, 10, 0)

    def test_encode_call_sorted_deterministic(self):
        a = encode_call(["r"], ["w"], {"p": 1}, crdt=True)
        b = encode_call(["r"], ["w"], {"p": 1}, crdt=True)
        assert a == b
