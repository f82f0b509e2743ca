"""Tests for the chaincode shim: read/write recording and Fabric semantics."""

import pytest

from repro.common.errors import ChaincodeError
from repro.common.serialization import to_bytes
from repro.common.types import Version
from repro.contract import Contract, transaction
from repro.fabric.chaincode import ChaincodeRegistry, ShimStub
from repro.fabric.policy import or_policy
from repro.fabric.store import MemoryStore


@pytest.fixture
def state():
    db = MemoryStore()
    db.apply_write("existing", to_bytes({"v": 1}), Version(0, 0))
    db.apply_write("other", to_bytes({"v": 2}), Version(0, 1))
    return db


class TestReads:
    def test_read_records_version(self, state):
        stub = ShimStub(state, "tx1")
        assert stub.get_state("existing") == {"v": 1}
        rwset = stub.build_rwset()
        assert rwset.reads[0].key == "existing"
        assert rwset.reads[0].version == Version(0, 0)

    def test_missing_key_records_nil_version(self, state):
        stub = ShimStub(state, "tx1")
        assert stub.get_state("ghost") is None
        assert stub.build_rwset().reads[0].version is None

    def test_repeated_read_recorded_once(self, state):
        stub = ShimStub(state, "tx1")
        stub.get_state("existing")
        stub.get_state("existing")
        assert len(stub.build_rwset().reads) == 1

    def test_no_read_your_writes(self, state):
        """Fabric semantics: GetState after PutState returns committed state."""

        stub = ShimStub(state, "tx1")
        stub.put_state("existing", {"v": 99})
        assert stub.get_state("existing") == {"v": 1}

    def test_raw_read(self, state):
        stub = ShimStub(state, "tx1")
        assert stub.get_state_raw("existing") == to_bytes({"v": 1})


class TestWrites:
    def test_last_write_wins_within_tx(self, state):
        stub = ShimStub(state, "tx1")
        stub.put_state("k", {"n": 1})
        stub.put_state("k", {"n": 2})
        writes = stub.build_rwset().writes
        assert len(writes) == 1
        assert writes[0].value == to_bytes({"n": 2})

    def test_write_order_preserved(self, state):
        stub = ShimStub(state, "tx1")
        stub.put_state("b", {})
        stub.put_state("a", {})
        assert [w.key for w in stub.build_rwset().writes] == ["b", "a"]

    def test_put_crdt_sets_flag(self, state):
        stub = ShimStub(state, "tx1")
        stub.put_crdt("k", {"readings": []})
        write = stub.build_rwset().writes[0]
        assert write.is_crdt and not write.is_delete

    def test_delete(self, state):
        stub = ShimStub(state, "tx1")
        stub.del_state("existing")
        write = stub.build_rwset().writes[0]
        assert write.is_delete and write.value == b""

    def test_invalid_key_rejected(self, state):
        stub = ShimStub(state, "tx1")
        with pytest.raises(ChaincodeError):
            stub.put_state("", {})
        with pytest.raises(ChaincodeError):
            stub.get_state("")


class TestRangeAndRichQueries:
    def test_range_query_recorded(self, state):
        stub = ShimStub(state, "tx1")
        results = stub.get_state_by_range("e", "f")
        assert [key for key, _ in results] == ["existing"]
        rwset = stub.build_rwset()
        assert len(rwset.range_queries) == 1
        assert rwset.range_queries[0].start_key == "e"

    def test_rich_query_not_recorded(self, state):
        """Rich queries give no phantom protection in Fabric."""

        stub = ShimStub(state, "tx1")
        results = stub.get_query_result({"v": {"$gte": 1}})
        assert len(results) == 2
        rwset = stub.build_rwset()
        assert rwset.range_queries == () and rwset.reads == ()


class TestChaincodeDispatch:
    class Adder(Contract):
        name = "adder"

        @transaction
        def add(self, ctx, a: int, b: int):
            return {"sum": a + b}

    def test_invoke_dispatches_to_fn(self, state):
        stub = ShimStub(state, "tx1")
        result = self.Adder().invoke(stub, "add", ("2", "3"))
        assert result == {"sum": 5}

    def test_unknown_function_raises(self, state):
        stub = ShimStub(state, "tx1")
        with pytest.raises(ChaincodeError):
            self.Adder().invoke(stub, "nope", ())

    def test_registry(self):
        registry = ChaincodeRegistry()
        chaincode = self.Adder()
        registry.deploy(chaincode, or_policy("Org1"))
        assert registry.get("adder") is chaincode
        assert registry.policy_for("adder") == or_policy("Org1")
        assert registry.policy_for("ghost") is None
        assert "adder" in registry
        assert registry.names() == ("adder",)
        with pytest.raises(ChaincodeError):
            registry.get("missing")
