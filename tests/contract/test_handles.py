"""Tests for ctx.crdt handles: plumbing, caching, and end-to-end merging."""

import pytest

from repro.common.errors import ChaincodeError
from repro.common.serialization import from_bytes, to_bytes
from repro.common.types import Version
from repro.contract import Contract, query, transaction
from repro.core.network import vanilla_network
from repro.crdt.gcounter import GCounter
from repro.crdt.registry import crdt_from_dict_envelope, crdt_to_dict_envelope
from repro.fabric.chaincode import ShimStub
from repro.fabric.store import MemoryStore
from repro.gateway import Gateway

from ..conftest import small_config


class HandleContract(Contract):
    """One handler per handle kind, for end-to-end merge tests."""

    name = "handles"

    @transaction
    def bump(self, ctx, key: str, amount: int, actor: str):
        return {"total": ctx.crdt.counter(key).incr(amount, actor=actor)}

    @transaction
    def adjust(self, ctx, key: str, delta: int):
        return {"value": ctx.crdt.pn_counter(key).adjust(delta)}

    @transaction
    def adjust_as(self, ctx, key: str, delta: int, actor: str):
        return {"value": ctx.crdt.pn_counter(key).adjust(delta, actor=actor)}

    @transaction
    def add_member(self, ctx, key: str, member: str):
        ctx.crdt.set(key).add(member)
        return {}

    @transaction
    def drop_member(self, ctx, key: str, member: str):
        ctx.crdt.set(key).discard(member)
        return {}

    @transaction
    def set_status(self, ctx, key: str, status: str):
        ctx.crdt.register(key).assign(status)
        return {}

    @transaction
    def write_text(self, ctx, key: str, line: str):
        ctx.crdt.text(key).append(line)
        return {}

    @transaction
    def patch(self, ctx, key: str, fields: dict):
        ctx.crdt.doc(key).merge_patch(fields)
        return {}

    @query
    def counter_value(self, ctx, key: str):
        return {"value": ctx.crdt.counter(key).value()}

    @query
    def pn_value(self, ctx, key: str):
        return {"value": ctx.crdt.pn_counter(key).value()}

    @query
    def set_members(self, ctx, key: str):
        return {"members": ctx.crdt.set(key).elements()}

    @query
    def register_value(self, ctx, key: str):
        return {"value": ctx.crdt.register(key).value()}

    @query
    def read_text(self, ctx, key: str):
        return {"text": ctx.crdt.text(key).text()}


@pytest.fixture
def contract(local_network):
    local_network.deploy(HandleContract())
    return Gateway.connect(local_network).get_contract("handles")


class TestStubLevel:
    """Handle plumbing against a bare stub (no network)."""

    def test_mutations_compose_within_one_invocation(self):
        stub = ShimStub(MemoryStore(), "tx1")
        cc = HandleContract()
        ctx = cc.new_context(stub)
        handle = ctx.crdt.counter("hits")
        handle.incr(2, actor="a")
        handle.incr(3, actor="a")
        writes = stub.build_rwset().writes
        assert len(writes) == 1 and writes[0].is_crdt
        from repro.common.serialization import from_bytes

        merged = crdt_from_dict_envelope(from_bytes(writes[0].value))
        assert merged.value() == 5

    def test_factory_caches_handles_per_key(self):
        stub = ShimStub(MemoryStore(), "tx1")
        ctx = HandleContract().new_context(stub)
        assert ctx.crdt.counter("k") is ctx.crdt.counter("k")

    def test_kind_conflict_on_one_key_rejected(self):
        stub = ShimStub(MemoryStore(), "tx1")
        ctx = HandleContract().new_context(stub)
        ctx.crdt.counter("k")
        with pytest.raises(ChaincodeError, match="already opened"):
            ctx.crdt.set("k")

    def test_wrong_committed_type_rejected(self):
        from repro.common.serialization import to_bytes
        from repro.common.types import Version

        db = MemoryStore()
        db.apply_write(
            "k", to_bytes(crdt_to_dict_envelope(GCounter().increment("a"))), Version(0, 0)
        )
        ctx = HandleContract().new_context(ShimStub(db, "tx1"))
        with pytest.raises(ChaincodeError, match="holds a 'g-counter'"):
            ctx.crdt.pn_counter("k").adjust(1)

    def test_plain_json_key_rejected(self):
        from repro.common.serialization import to_bytes
        from repro.common.types import Version

        db = MemoryStore()
        db.apply_write("k", to_bytes({"plain": 1}), Version(0, 0))
        ctx = HandleContract().new_context(ShimStub(db, "tx1"))
        with pytest.raises(ChaincodeError, match="does not hold a CRDT envelope"):
            ctx.crdt.counter("k").incr()

    def test_negative_gcounter_increment_rejected(self):
        ctx = HandleContract().new_context(ShimStub(MemoryStore(), "tx1"))
        with pytest.raises(ChaincodeError, match="pn_counter"):
            ctx.crdt.counter("k").incr(-1)

    def test_doc_patches_deep_merge_locally(self):
        stub = ShimStub(MemoryStore(), "tx1")
        ctx = HandleContract().new_context(stub)
        doc = ctx.crdt.doc("d")
        doc.merge_patch({"a": {"x": 1}, "items": [1]})
        doc.merge_patch({"a": {"y": 2}, "items": [2]})
        from repro.common.serialization import from_bytes

        writes = stub.build_rwset().writes
        assert len(writes) == 1
        assert from_bytes(writes[0].value) == {"a": {"x": 1, "y": 2}, "items": [1, 2]}


class TestEndToEnd:
    """Concurrent handle mutations merged by the FabricCRDT committer."""

    def test_concurrent_counter_increments_all_count(self, contract, local_network):
        txs = [
            contract.submit_async("bump", "hits", "1", f"voter{i}", client_index=i % 4)
            for i in range(7)
        ]
        assert all(tx.commit_status().succeeded for tx in txs)
        assert contract.evaluate("counter_value", "hits")["value"] == 7
        local_network.assert_states_converged()

    def test_counter_accumulates_across_blocks(self, contract):
        for _ in range(3):
            contract.submit("bump", "again", "2", "actor-a")
        assert contract.evaluate("counter_value", "again")["value"] == 6

    def test_concurrent_pn_adjustments_conserve_sum(self, contract, local_network):
        txs = [
            contract.submit_async("adjust", "bal", str(delta), client_index=i % 4)
            for i, delta in enumerate([10, -4, 7, -3])
        ]
        assert all(tx.commit_status().succeeded for tx in txs)
        state = local_network.state_of("bal")
        assert crdt_from_dict_envelope(state).value() == 10

    def test_concurrent_set_adds_union(self, contract, local_network):
        txs = [
            contract.submit_async("add_member", "team", member, client_index=i % 4)
            for i, member in enumerate(["ana", "bo", "cy"])
        ]
        assert all(tx.commit_status().succeeded for tx in txs)
        assert sorted(contract.evaluate("set_members", "team")["members"]) == [
            "ana", "bo", "cy",
        ]

    def test_set_discard_then_concurrent_add_wins(self, contract):
        contract.submit("add_member", "team", "dax")
        drop = contract.submit_async("drop_member", "team", "dax")
        re_add = contract.submit_async("add_member", "team", "dax")
        assert drop.commit_status().succeeded and re_add.commit_status().succeeded
        # Add-wins: the concurrent add used a tag the remove never observed.
        assert contract.evaluate("set_members", "team")["members"] == ["dax"]

    def test_concurrent_register_assigns_resolve_deterministically(
        self, contract, local_network
    ):
        txs = [
            contract.submit_async("set_status", "phase", status, client_index=i % 4)
            for i, status in enumerate(["alpha", "beta", "gamma"])
        ]
        assert all(tx.commit_status().succeeded for tx in txs)
        winner = contract.evaluate("register_value", "phase")["value"]
        assert winner in {"alpha", "beta", "gamma"}
        local_network.assert_states_converged()

    def test_concurrent_text_appends_all_survive(self, contract, local_network):
        txs = [
            contract.submit_async("write_text", "pad", line, client_index=i % 4)
            for i, line in enumerate(["one;", "two;", "three;"])
        ]
        assert all(tx.commit_status().succeeded for tx in txs)
        text = contract.evaluate("read_text", "pad")["text"]
        for line in ["one;", "two;", "three;"]:
            assert line in text
        local_network.assert_states_converged()

    def test_concurrent_doc_patches_merge_fieldwise(self, contract, local_network):
        contract.submit("patch", "cfg", '{"base": {"v": "1"}}')
        txs = [
            contract.submit_async("patch", "cfg", '{"a": {"x": "1"}}', client_index=0),
            contract.submit_async("patch", "cfg", '{"a": {"y": "2"}}', client_index=1),
        ]
        assert all(tx.commit_status().succeeded for tx in txs)
        state = local_network.state_of("cfg")
        assert state["a"] == {"x": "1", "y": "2"}


class TestDeltaWrites:
    """What a state-CRDT handle writes: its delta where the committer merges
    into the committed value, its whole view where the peer stores as-is."""

    @staticmethod
    def _seeded(counter: GCounter) -> MemoryStore:
        db = MemoryStore()
        db.apply_write("k", to_bytes(crdt_to_dict_envelope(counter)), Version(0, 0))
        return db

    def _written(self, stub: ShimStub):
        (write,) = stub.build_rwset().writes
        assert write.is_crdt
        return crdt_from_dict_envelope(from_bytes(write.value))

    def test_counter_writes_one_entry_when_the_committer_merges(self):
        committed = GCounter({"a": 4, "b": 2, "c": 1})
        stub = ShimStub(self._seeded(committed), "tx1", crdt_deltas=True)
        handle = HandleContract().new_context(stub).crdt.counter("k")
        assert handle.incr(2, actor="a") == 9
        assert handle.incr(1, actor="a") == 10
        assert self._written(stub).to_dict() == {"entries": {"a": 7}}

    def test_bare_stub_writes_the_whole_view(self):
        committed = GCounter({"a": 4, "b": 2, "c": 1})
        stub = ShimStub(self._seeded(committed), "tx1")
        assert stub.crdt_deltas is False
        HandleContract().new_context(stub).crdt.counter("k").incr(2, actor="a")
        assert self._written(stub) == GCounter({"a": 6, "b": 2, "c": 1})

    def test_an_adjust_after_initialize_still_carries_the_genesis_state(self):
        stub = ShimStub(MemoryStore(), "tx1", crdt_deltas=True)
        handle = HandleContract().new_context(stub).crdt.pn_counter("k")
        handle.initialize(10)
        assert handle.adjust(-3, actor="a") == 7
        assert self._written(stub).value() == 7

    def test_a_crdt_channel_orders_deltas_and_commits_the_merged_state(
        self, contract, local_network
    ):
        for voter in ("v1", "v2", "v3"):
            contract.submit("bump", "votes", "1", voter)
        tx = contract.submit_async("bump", "votes", "1", "v4")
        assert tx.commit_status().succeeded
        ledger = local_network.ledger_of(0)
        (write,) = ledger.block_at(tx.commit_status().block_num).block.transactions[0].rwset.writes
        assert from_bytes(write.value)["state"] == {"entries": {"v4": 1}}
        assert crdt_from_dict_envelope(local_network.state_of("votes")).to_dict() == {
            "entries": {"v1": 1, "v2": 1, "v3": 1, "v4": 1}
        }


class TestVanillaChannel:
    """A vanilla peer stores a CRDT-flagged write as it is and merges nothing,
    so a handle there must write its whole view: a delta would *replace* the
    committed state with the last transaction's change."""

    @pytest.fixture
    def vanilla(self):
        network = vanilla_network(small_config(max_message_count=10))
        network.deploy(HandleContract())
        return Gateway.connect(network).get_contract("handles")

    def test_sequential_counter_increments_all_count(self, vanilla):
        for actor in ("a", "b", "c", "a"):
            assert vanilla.submit_async("bump", "k", "1", actor).commit_status().succeeded
        assert vanilla.evaluate("counter_value", "k")["value"] == 4

    def test_sequential_pn_adjustments_all_count(self, vanilla):
        for actor in ("a", "b", "c", "a"):
            assert vanilla.submit_async("adjust_as", "k", "1", actor).commit_status().succeeded
        assert vanilla.evaluate("pn_value", "k")["value"] == 4

    def test_sequential_set_adds_and_discards_all_apply(self, vanilla):
        for member in ("a", "b", "c", "a"):
            assert vanilla.submit_async("add_member", "k", member).commit_status().succeeded
        assert sorted(vanilla.evaluate("set_members", "k")["members"]) == ["a", "b", "c"]
        assert vanilla.submit_async("drop_member", "k", "b").commit_status().succeeded
        assert sorted(vanilla.evaluate("set_members", "k")["members"]) == ["a", "c"]


class TestSharedActor:
    """The per-actor maximum keeps one of two same-actor increments in a block."""

    def test_two_increments_under_one_explicit_actor_in_one_block_count_once(
        self, contract
    ):
        txs = [contract.submit_async("bump", "shared", "1", "shared") for _ in range(2)]
        assert all(tx.commit_status().succeeded for tx in txs)
        assert txs[0].commit_status().block_num == txs[1].commit_status().block_num
        assert contract.evaluate("counter_value", "shared")["value"] == 1
