"""Backend-parametrized tests for the pluggable StateStore layer."""

import os

import pytest

from repro.common.config import NetworkConfig, TopologyConfig, fabriccrdt_config
from repro.common.errors import ConfigError
from repro.common.serialization import to_bytes
from repro.common.types import Version
from repro.fabric.ledger import Ledger
from repro.fabric.store import (
    EMPTY_FINGERPRINT,
    MemoryStore,
    SqliteStore,
    WriteBatch,
    create_store,
)
from repro.fabric.store.batch import BatchWrite


BACKENDS = ("memory", "sqlite")


@pytest.fixture(params=BACKENDS)
def store(request):
    built = create_store(request.param)
    yield built
    built.close()


def put(store, key, value, block=0, tx=0):
    store.apply_write(key, to_bytes(value), Version(block, tx))


class TestInterface:
    def test_point_and_versioned_reads(self, store):
        put(store, "k", {"a": 1}, block=2, tx=5)
        assert store.get("k").version == Version(2, 5)
        assert store.get_value("k") == to_bytes({"a": 1})
        assert store.get_version("k") == Version(2, 5)
        assert store.get("missing") is None
        assert "k" in store and "missing" not in store
        assert len(store) == 1

    def test_delete_and_sorted_keys(self, store):
        for key in ("b", "a", "c"):
            put(store, key, {})
        store.apply_write("b", b"", Version(1, 0), is_delete=True)
        assert store.keys() == ("a", "c")
        assert store.get("b") is None

    def test_range_scan_half_open_and_open_end(self, store):
        for key in ("a1", "a2", "a3", "b1"):
            put(store, key, {})
        assert [k for k, _ in store.range_scan("a1", "a3")] == ["a1", "a2"]
        assert [k for k, _ in store.range_scan("a3", "")] == ["a3", "b1"]

    def test_composite_style_nul_keys_order_first(self, store):
        put(store, "plain", {})
        put(store, "\x00obj\x00a\x00", {})
        assert store.keys()[0] == "\x00obj\x00a\x00"
        assert [k for k, _ in store.range_scan("\x00", "\x01")] == ["\x00obj\x00a\x00"]

    def test_write_batch_applies_in_block_order(self, store):
        batch = WriteBatch(block_number=3)
        batch.put("k", to_bytes({"v": 1}), Version(3, 0))
        batch.put("k", to_bytes({"v": 2}), Version(3, 4))
        batch.put("gone", to_bytes({}), Version(3, 1))
        batch.put("gone", b"", Version(3, 5), is_delete=True)
        store.apply_batch(batch)
        assert store.get_version("k") == Version(3, 4)
        assert store.get_value("k") == to_bytes({"v": 2})
        assert "gone" not in store

    def test_snapshot_versions(self, store):
        put(store, "a", {}, block=0, tx=0)
        put(store, "b", {}, block=1, tx=2)
        assert store.snapshot_versions() == {"a": Version(0, 0), "b": Version(1, 2)}


class TestFingerprint:
    def test_empty_store_fingerprint(self, store):
        assert store.fingerprint() == EMPTY_FINGERPRINT

    def test_incremental_matches_recompute(self, store):
        for i in range(50):
            put(store, f"k{i}", {"i": i}, block=0, tx=i)
        store.apply_write("k7", b"", Version(1, 0), is_delete=True)
        put(store, "k9", {"i": 999}, block=1, tx=1)
        assert store.fingerprint() == store.compute_fingerprint()

    def test_content_function_not_history_function(self):
        forward, backward = MemoryStore(), MemoryStore()
        writes = [(f"k{i}", {"i": i}, Version(0, i)) for i in range(10)]
        for key, value, version in writes:
            forward.apply_write(key, to_bytes(value), version)
        for key, value, version in reversed(writes):
            backward.apply_write(key, to_bytes(value), version)
        assert forward.fingerprint() == backward.fingerprint()

    def test_identical_across_backends(self):
        stores = [create_store(backend) for backend in BACKENDS]
        batch = WriteBatch(block_number=0)
        for i in range(20):
            batch.put(f"k{i}", to_bytes({"i": i}), Version(0, i))
        for s in stores:
            s.apply_batch(batch)
        assert len({s.fingerprint() for s in stores}) == 1
        for s in stores:
            s.close()

    def test_divergent_write_changes_fingerprint(self, store):
        put(store, "k", {"v": 1})
        before = store.fingerprint()
        put(store, "k", {"v": 2}, block=1, tx=0)
        assert store.fingerprint() != before

    def test_delete_returns_to_prior_fingerprint(self, store):
        put(store, "a", {"v": 1})
        before = store.fingerprint()
        put(store, "b", {"v": 2}, block=1, tx=0)
        store.apply_write("b", b"", Version(2, 0), is_delete=True)
        assert store.fingerprint() == before


class TestSqlitePersistence:
    def test_close_and_reopen_preserves_everything(self, tmp_path):
        path = os.path.join(tmp_path, "state.sqlite")
        first = SqliteStore(path)
        batch = WriteBatch(block_number=0)
        for i in range(200):
            batch.put(f"k{i:03d}", to_bytes({"i": i}), Version(0, i))
        first.apply_batch(batch)
        first.apply_write("k005", b"", Version(1, 0), is_delete=True)
        snapshot = first.snapshot_versions()
        fingerprint = first.fingerprint()
        first.close()

        reopened = SqliteStore(path)
        assert len(reopened) == 199
        assert reopened.snapshot_versions() == snapshot
        assert reopened.fingerprint() == fingerprint
        assert reopened.fingerprint() == reopened.compute_fingerprint()
        assert reopened.get("k042").value == to_bytes({"i": 42})
        reopened.close()

    def test_fingerprint_recomputed_for_pre_fingerprint_databases(self, tmp_path):
        path = os.path.join(tmp_path, "state.sqlite")
        first = SqliteStore(path)
        put(first, "k", {"v": 1})
        expected = first.fingerprint()
        # Simulate a database written before the meta fingerprint existed.
        first._conn.execute("DELETE FROM meta")
        first.close()
        reopened = SqliteStore(path)
        assert reopened.fingerprint() == expected
        reopened.close()

    def test_failed_batch_rolls_back_entirely(self, tmp_path):
        path = os.path.join(tmp_path, "state.sqlite")
        store = SqliteStore(path)
        put(store, "committed", {"v": 1})
        fingerprint = store.fingerprint()
        bad = WriteBatch(block_number=1)
        bad.put("new-key", to_bytes({"v": 2}), Version(1, 0))
        # An unbindable value type makes the second write explode mid-batch.
        bad.writes.append(BatchWrite("boom", {"not": "bytes"}, Version(1, 1), False))
        with pytest.raises(Exception):
            store.apply_batch(bad)
        assert "new-key" not in store
        assert len(store) == 1
        assert store.fingerprint() == fingerprint
        assert store.fingerprint() == store.compute_fingerprint()
        store.close()

    def test_closed_store_refuses_access(self):
        store = SqliteStore()
        store.close()
        from repro.common.errors import StateError

        with pytest.raises(StateError):
            store.get("k")

    def test_rich_query_matches_memory(self):
        docs = {
            "d1": {"type": "sensor", "temp": 20},
            "d2": {"type": "sensor", "temp": 30},
            "d3": {"type": "gateway", "temp": 25},
        }
        stores = [create_store(backend) for backend in BACKENDS]
        for s in stores:
            for key, doc in docs.items():
                put(s, key, doc)
        for selector in ({"type": "sensor"}, {"temp": {"$gt": 22}}, {"$not": {"type": "sensor"}}):
            results = [s.rich_query(selector) for s in stores]
            assert results[0] == results[1]
        for s in stores:
            s.close()


class TestFactoryAndConfig:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            create_store("couchdb")

    def test_memory_takes_no_path(self):
        with pytest.raises(ConfigError):
            create_store("memory", "/tmp/x.sqlite")

    def test_network_config_validates_backend(self):
        with pytest.raises(ConfigError):
            NetworkConfig(state_backend="couchdb")
        with pytest.raises(ConfigError):
            NetworkConfig(state_dir="/tmp/x")  # memory backend takes no dir

    def test_with_state_backend_copies(self):
        config = fabriccrdt_config(25)
        moved = config.with_state_backend("sqlite")
        assert moved.state_backend == "sqlite"
        assert moved.orderer == config.orderer
        assert config.state_backend == "memory"


def make_tx(nonce, key="k", value=b"v"):
    from repro.common.types import ReadWriteSet, WriteItem
    from repro.fabric.transaction import Proposal, TransactionEnvelope

    proposal = Proposal.create("ch", "cc", "fn", (str(nonce),), "Org1.c", nonce)
    return TransactionEnvelope(
        proposal=proposal,
        rwset=ReadWriteSet.build(writes=[WriteItem(key, value)]),
        endorsements=(),
    )


def committed_block(number, previous_hash, txs, codes):
    from repro.common.types import ValidationCode  # noqa: F401
    from repro.fabric.block import Block, BlockMetadata, CommittedBlock

    block = Block.build(number, previous_hash, tuple(txs))
    metadata = BlockMetadata(number)
    for index, code in enumerate(codes):
        metadata.mark(index, code)
    return CommittedBlock(block, metadata)


def _append_one_block(ledger):
    from repro.common.types import ValidationCode

    committed = committed_block(
        ledger.height, ledger.last_hash, [make_tx(1)], [ValidationCode.VALID]
    )
    batch = WriteBatch(block_number=committed.block.number)
    for tx_index, write in committed.writes_applied():
        batch.put(
            write.key,
            write.value,
            Version(committed.block.number, tx_index),
            write.is_delete,
        )
    ledger.state.apply_batch(batch)
    ledger.append_block(committed)


class TestLedgerIntegration:
    def test_ledger_defaults_to_memory(self):
        assert isinstance(Ledger().state, MemoryStore)

    def test_rebuild_state_into_sqlite_matches(self):
        ledger = Ledger()
        _append_one_block(ledger)
        rebuilt = ledger.rebuild_state()
        sqlite_rebuilt = ledger.rebuild_state(into=create_store("sqlite"))
        assert rebuilt.fingerprint() == ledger.state.fingerprint()
        assert sqlite_rebuilt.fingerprint() == ledger.state.fingerprint()
        sqlite_rebuilt.close()


def _run_iot_network(tmp_path, devices=4):
    from repro.core.network import crdt_network
    from repro.gateway import Gateway
    from repro.workload.iot import IOT_CHAINCODE_NAME, IoTChaincode, encode_call

    config = fabriccrdt_config(400, state_backend="sqlite", state_dir=str(tmp_path))
    network = crdt_network(config)
    network.deploy(IoTChaincode())
    contract = Gateway.connect(network).get_contract(IOT_CHAINCODE_NAME)
    submitted = []
    for n in range(devices):
        call = encode_call(
            read_keys=[f"device-{n}"],
            write_keys=[f"device-{n}"],
            payload={"deviceId": f"device-{n}", "t": str(n)},
            crdt=True,
        )
        submitted.append(contract.submit_async("record", call))
    network.flush()
    return network


class TestTopologyOnSqlite:
    def test_local_network_runs_on_sqlite_backend(self, tmp_path):
        network = _run_iot_network(tmp_path)
        assert network.world_states_converged()
        assert network.state_of("device-1")["deviceId"] == "device-1"
        # One database file per peer landed under state_dir.
        files = [name for name in os.listdir(tmp_path) if name.endswith(".sqlite")]
        assert len(files) == len(network.peers)

    def test_fresh_network_refuses_stale_state_dir(self, tmp_path):
        from repro.common.errors import FabricError

        _run_iot_network(tmp_path)  # leaves populated per-peer databases
        with pytest.raises(FabricError, match="previous run"):
            _run_iot_network(tmp_path)

    def test_sqlite_peer_state_survives_reopen(self, tmp_path):
        network = _run_iot_network(tmp_path)
        anchor = network.anchor_peer
        snapshot = anchor.ledger.state.snapshot_versions()
        fingerprint = anchor.ledger.state.fingerprint()
        height = anchor.ledger.height
        path = anchor.ledger.state.path
        anchor.ledger.state.close()

        reopened = SqliteStore(path)
        assert reopened.snapshot_versions() == snapshot
        assert reopened.fingerprint() == fingerprint
        # Height is recoverable from the max committed version in state.
        assert max(v.block_num for v in snapshot.values()) == height - 1
        reopened.close()
