"""Unit tests for Algorithm 1 (ValidateMergeBlock)."""

import pytest

from repro.common.config import CRDTConfig
from repro.common.serialization import from_bytes, to_bytes
from repro.common.types import ReadItem, ReadWriteSet, ValidationCode, Version, WriteItem
from repro.core.blockmerge import validate_merge_block
from repro.crdt.json import MAX_NESTING_DEPTH
from repro.fabric.block import GENESIS_PREVIOUS_HASH, Block
from repro.fabric.events import statuses_from_block
from repro.fabric.store import MemoryStore

from ..fabric.helpers import build_peer, endorsed_tx, write_rwset


def crdt_tx(peer, nonce, key, value, reads=()):
    return endorsed_tx(peer, write_rwset((key, value), reads=reads, crdt=True), nonce)


def build_block(peer, txs):
    return Block.build(peer.ledger.height, peer.ledger.last_hash, tuple(txs))


def run_algorithm1(peer, txs, config=CRDTConfig(), precodes=None):
    block = build_block(peer, txs)
    codes = precodes if precodes is not None else [None] * len(txs)
    return block, validate_merge_block(block, codes, peer.ledger.state, config)


class TestFirstPass:
    def test_crdt_txs_skip_mvcc(self):
        peer = build_peer()
        txs = [crdt_tx(peer, i, "k", {"l": [str(i)]}) for i in range(3)]
        _, plan = run_algorithm1(peer, txs)
        assert plan.skip_mvcc == frozenset({0, 1, 2})

    def test_non_crdt_txs_left_alone(self):
        peer = build_peer()
        plain = endorsed_tx(peer, write_rwset(("p", {"x": 1})), 1)
        flagged = crdt_tx(peer, 2, "k", {"l": ["a"]})
        _, plan = run_algorithm1(peer, [plain, flagged])
        assert plan.skip_mvcc == frozenset({1})
        assert 0 not in plan.replacement_writes

    def test_endorsement_failed_txs_excluded(self):
        """Only transactions passing endorsement validation are merged
        (the paper's definition of valid transactions, §4.2)."""

        peer = build_peer()
        txs = [crdt_tx(peer, i, "k", {"l": [str(i)]}) for i in range(2)]
        _, plan = run_algorithm1(
            peer, txs, precodes=[ValidationCode.ENDORSEMENT_POLICY_FAILURE, None]
        )
        assert plan.skip_mvcc == frozenset({1})
        merged = from_bytes(plan.replacement_writes[1][0].value)
        assert merged == {"l": ["1"]}  # tx 0's value not merged

    def test_merge_work_counters(self):
        peer = build_peer()
        txs = [crdt_tx(peer, i, "k", {"l": [str(i)]}) for i in range(4)]
        _, plan = run_algorithm1(peer, txs)
        assert plan.work["merge_docs"] == 1
        assert plan.work["merge_ops"] > 0
        assert plan.work["merge_scan_steps"] > 0


class TestSecondPass:
    def test_all_crdt_writes_get_identical_merged_value(self):
        """Listing 2: after merging, every transaction's write-set holds the
        same converged value."""

        peer = build_peer()
        txs = [crdt_tx(peer, i, "dev", {"r": [{"t": str(20 + i)}]}) for i in range(3)]
        _, plan = run_algorithm1(peer, txs)
        values = {plan.replacement_writes[i][0].value for i in range(3)}
        assert len(values) == 1
        merged = from_bytes(values.pop())
        assert merged == {"r": [{"t": "20"}, {"t": "21"}, {"t": "22"}]}

    def test_multiple_keys_merged_independently(self):
        peer = build_peer()
        tx_a = crdt_tx(peer, 1, "ka", {"l": ["a"]})
        tx_b = crdt_tx(peer, 2, "kb", {"l": ["b"]})
        _, plan = run_algorithm1(peer, [tx_a, tx_b])
        assert plan.work["merge_docs"] == 2
        assert from_bytes(plan.replacement_writes[0][0].value) == {"l": ["a"]}
        assert from_bytes(plan.replacement_writes[1][0].value) == {"l": ["b"]}

    def test_mixed_writes_only_crdt_replaced(self):
        peer = build_peer()
        rwset = ReadWriteSet.build(
            writes=[
                WriteItem("plain", to_bytes({"p": 1})),
                WriteItem("flagged", to_bytes({"l": ["x"]}), is_crdt=True),
            ]
        )
        tx = endorsed_tx(peer, rwset, 1)
        _, plan = run_algorithm1(peer, [tx])
        new_writes = plan.replacement_writes[0]
        assert new_writes[0].value == to_bytes({"p": 1})  # untouched
        assert from_bytes(new_writes[1].value) == {"l": ["x"]}
        assert new_writes[1].is_crdt


class TestDeterminism:
    def test_two_peers_compute_identical_plans(self):
        peer_a = build_peer(name="peerA")
        peer_b = build_peer(name="peerB", membership=peer_a.membership,
                            chaincodes=peer_a.chaincodes)
        txs = [crdt_tx(peer_a, i, "k", {"l": [{"t": str(i)}]}) for i in range(5)]
        block = build_block(peer_a, txs)
        config = CRDTConfig()
        plan_a = validate_merge_block(block, [None] * 5, peer_a.ledger.state, config)
        plan_b = validate_merge_block(block, [None] * 5, peer_b.ledger.state, config)
        for index in range(5):
            assert (
                plan_a.replacement_writes[index] == plan_b.replacement_writes[index]
            )

    def test_rerunning_merge_on_committed_block_reproduces_effective_writes(self):
        """The world state stays a *replayable* function of the raw chain:
        re-running Algorithm 1 on the stored block regenerates exactly the
        effective writes the peer applied."""

        from repro.core.peer import CRDTPeer

        peer = build_peer(peer_cls=CRDTPeer)
        txs = [crdt_tx(peer, i, "k", {"l": [str(i)]}) for i in range(4)]
        block = build_block(peer, txs)
        committed = peer.validate_and_commit(block)
        fresh_state = MemoryStore()
        replan = validate_merge_block(block, [None] * 4, fresh_state, CRDTConfig())
        regenerated = []
        for tx_index, tx in enumerate(block.transactions):
            for write in replan.replacement_writes.get(tx_index, tx.rwset.writes):
                regenerated.append((tx_index, write))
        assert tuple(regenerated) == committed.effective_writes


class TestBadPayloads:
    def test_unparseable_value_forces_bad_payload(self):
        peer = build_peer()
        rwset = ReadWriteSet.build(writes=[WriteItem("k", b"\xff\xfe", is_crdt=True)])
        bad = endorsed_tx(peer, rwset, 1)
        good = crdt_tx(peer, 2, "k", {"l": ["ok"]})
        _, plan = run_algorithm1(peer, [bad, good])
        assert plan.forced_codes == {0: ValidationCode.BAD_PAYLOAD}
        assert plan.skip_mvcc == frozenset({1})
        assert from_bytes(plan.replacement_writes[1][0].value) == {"l": ["ok"]}

    def test_non_object_value_forces_bad_payload(self):
        peer = build_peer()
        rwset = ReadWriteSet.build(
            writes=[WriteItem("k", to_bytes(["array", "top"]), is_crdt=True)]
        )
        tx = endorsed_tx(peer, rwset, 1)
        _, plan = run_algorithm1(peer, [tx])
        assert plan.forced_codes == {0: ValidationCode.BAD_PAYLOAD}

    def test_kind_mix_on_one_key_rejected(self):
        from repro.crdt import GCounter
        from repro.crdt.registry import crdt_to_dict_envelope

        peer = build_peer()
        json_tx = crdt_tx(peer, 1, "k", {"l": ["x"]})
        envelope_tx = crdt_tx(
            peer, 2, "k", crdt_to_dict_envelope(GCounter().increment("a"))
        )
        _, plan = run_algorithm1(peer, [json_tx, envelope_tx])
        assert plan.skip_mvcc == frozenset({0})
        assert plan.forced_codes == {1: ValidationCode.BAD_PAYLOAD}

    def test_rejected_payload_leaves_no_trace_in_committed_value(self):
        """A payload that fails on its second key must not leave its first
        key in the document every peer commits."""

        peer = build_peer()
        good = crdt_tx(peer, 1, "k", {"ok": "kept", "l": ["x"]})
        bad = crdt_tx(peer, 2, "k", {"a": "leaked", "b": 1})
        _, plan = run_algorithm1(
            peer, [good, bad], config=CRDTConfig(stringify_scalars=False)
        )
        assert plan.forced_codes == {1: ValidationCode.BAD_PAYLOAD}
        assert plan.skip_mvcc == frozenset({0})
        assert from_bytes(plan.replacement_writes[0][0].value) == {"ok": "kept", "l": ["x"]}

    def test_rejected_payload_first_in_block_leaves_no_trace(self):
        peer = build_peer()
        bad = crdt_tx(peer, 1, "k", {"a": "leaked", "b": {"c": [None]}})
        good = crdt_tx(peer, 2, "k", {"ok": "kept"})
        _, plan = run_algorithm1(
            peer, [bad, good], config=CRDTConfig(stringify_scalars=False)
        )
        assert plan.forced_codes == {0: ValidationCode.BAD_PAYLOAD}
        assert from_bytes(plan.replacement_writes[1][0].value) == {"ok": "kept"}

    @staticmethod
    def two_key_tx(peer, nonce, first, second):
        """One transaction with two CRDT writes, in write-set order."""

        writes = [WriteItem(key, to_bytes(value), is_crdt=True) for key, value in (first, second)]
        return endorsed_tx(peer, ReadWriteSet.build(writes=writes), nonce)

    def test_transaction_rejected_on_its_second_key_leaves_its_first_unmerged(self):
        """The ROADMAP item-3 bug: the rejected transaction's first key used
        to stay in the value every *other* transaction commits."""

        peer = build_peer()
        good = crdt_tx(peer, 1, "a", {"l": ["ok"]})
        bad = self.two_key_tx(
            peer, 2, ("a", {"l": ["LEAK"]}), ("b", ["not", "an", "object"])
        )
        _, plan = run_algorithm1(peer, [good, bad])
        assert plan.forced_codes == {1: ValidationCode.BAD_PAYLOAD}
        assert plan.skip_mvcc == frozenset({0})
        assert from_bytes(plan.replacement_writes[0][0].value) == {"l": ["ok"]}
        assert 1 not in plan.replacement_writes
        assert plan.work["merge_docs"] == 1  # "b" was never created

    def test_transaction_rejected_on_its_first_key_leaves_its_second_unmerged(self):
        peer = build_peer()
        bad = self.two_key_tx(
            peer, 1, ("b", ["not", "an", "object"]), ("a", {"l": ["LEAK"]})
        )
        good = crdt_tx(peer, 2, "a", {"l": ["ok"]})
        _, plan = run_algorithm1(peer, [bad, good])
        assert plan.forced_codes == {0: ValidationCode.BAD_PAYLOAD}
        assert from_bytes(plan.replacement_writes[1][0].value) == {"l": ["ok"]}
        assert plan.work["merge_docs"] == 1

    def test_envelope_after_json_on_one_key_inside_one_transaction(self):
        """The kind check also runs against the CRDT an earlier write of the
        same transaction would create — and a rejected transaction's kind
        does not stick to the key for the rest of the block."""

        from repro.crdt import GCounter
        from repro.crdt.registry import crdt_to_dict_envelope

        peer = build_peer()
        counter = crdt_to_dict_envelope(GCounter().increment("a"))
        bad = self.two_key_tx(peer, 1, ("k", {"l": ["LEAK"]}), ("k", counter))
        good = crdt_tx(peer, 2, "k", counter)
        _, plan = run_algorithm1(peer, [bad, good])
        assert plan.forced_codes == {0: ValidationCode.BAD_PAYLOAD}
        assert plan.skip_mvcc == frozenset({1})
        assert from_bytes(plan.replacement_writes[1][0].value) == counter

    def test_second_key_of_another_counter_type_leaves_the_first_unmerged(self):
        from repro.crdt import GCounter, PNCounter
        from repro.crdt.registry import crdt_to_dict_envelope

        peer = build_peer()
        one = crdt_to_dict_envelope(GCounter().increment("a"))
        other = crdt_to_dict_envelope(PNCounter().increment("z"))
        good = self.two_key_tx(peer, 1, ("g", one), ("p", other))
        bad = self.two_key_tx(
            peer, 2, ("g", crdt_to_dict_envelope(GCounter().increment("LEAK"))), ("p", one)
        )
        _, plan = run_algorithm1(peer, [good, bad])
        assert plan.forced_codes == {1: ValidationCode.BAD_PAYLOAD}
        assert from_bytes(plan.replacement_writes[0][0].value) == one

    @staticmethod
    def clashing_envelopes(kind):
        """Two well-formed envelopes of one type whose *contents* refuse to
        merge — no decode or type check can see it, only the merge."""

        from repro.common.clock import LamportTimestamp
        from repro.crdt import HEAD, RGA, GCounter, ORMap, PNCounter, TextDocument
        from repro.crdt.registry import crdt_to_dict_envelope

        if kind == "or-map":  # one tag bound to two CRDT types
            pair = (ORMap().put("f", GCounter(), "t1"), ORMap().put("f", PNCounter(), "t1"))
        else:  # one element id with two contents
            one = LamportTimestamp(1, "a")
            pair = (RGA().insert_after(HEAD, one, "ok"), RGA().insert_after(HEAD, one, "LEAK"))
            if kind == "text":
                pair = tuple(TextDocument("editor", rga) for rga in pair)  # the empty one's actor
        return tuple(crdt_to_dict_envelope(crdt) for crdt in pair)

    @pytest.mark.parametrize("kind", ["rga", "text", "or-map"])
    def test_envelopes_that_clash_on_content_force_bad_payload(self, kind):
        """``StateCRDT.merge`` refuses on content too: that rejects the one
        transaction, it does not leave ``validate_merge_block``."""

        peer = build_peer()
        ok, clash = self.clashing_envelopes(kind)
        txs = [crdt_tx(peer, 1, "k", ok), crdt_tx(peer, 2, "k", clash), crdt_tx(peer, 3, "k", ok)]
        _, plan = run_algorithm1(peer, txs)
        assert plan.forced_codes == {1: ValidationCode.BAD_PAYLOAD}
        assert plan.skip_mvcc == frozenset({0, 2})
        assert from_bytes(plan.replacement_writes[0][0].value) == ok
        assert plan.work["merge_ops"] == 2

    @pytest.mark.parametrize("kind", ["rga", "text", "or-map"])
    def test_content_clash_on_the_second_key_leaves_the_first_unmerged(self, kind):
        peer = build_peer()
        ok, clash = self.clashing_envelopes(kind)
        good = self.two_key_tx(peer, 1, ("a", {"l": ["ok"]}), ("k", ok))
        bad = self.two_key_tx(peer, 2, ("a", {"l": ["LEAK"]}), ("k", clash))
        _, plan = run_algorithm1(peer, [good, bad])
        assert plan.forced_codes == {1: ValidationCode.BAD_PAYLOAD}
        committed = [from_bytes(write.value) for write in plan.replacement_writes[0]]
        assert committed == [{"l": ["ok"]}, ok]

    def test_content_clash_with_the_committed_value_forces_bad_payload(self):
        """The seed merge runs inside the check as well."""

        peer = build_peer()
        ok, clash = self.clashing_envelopes("rga")
        peer.validate_and_commit(build_block(peer, [crdt_tx(peer, 1, "k", ok)]))
        bad = self.two_key_tx(peer, 2, ("a", {"l": ["LEAK"]}), ("k", clash))
        good = crdt_tx(peer, 3, "a", {"l": ["ok"]})
        _, plan = run_algorithm1(peer, [bad, good])
        assert plan.forced_codes == {0: ValidationCode.BAD_PAYLOAD}
        assert from_bytes(plan.replacement_writes[1][0].value) == {"l": ["ok"]}
        assert plan.work["merge_docs"] == 1

    def test_one_transaction_writing_a_state_key_twice_merges_both(self):
        from repro.crdt import GCounter
        from repro.crdt.registry import crdt_to_dict_envelope

        peer = build_peer()
        a, b = (crdt_to_dict_envelope(GCounter().increment(actor, 2)) for actor in "ab")
        _, plan = run_algorithm1(peer, [self.two_key_tx(peer, 1, ("k", a), ("k", b))])
        merged = crdt_to_dict_envelope(GCounter().increment("a", 2).increment("b", 2))
        assert from_bytes(plan.replacement_writes[0][0].value) == merged
        assert plan.work["merge_ops"] == 2

    def test_non_finite_number_forces_bad_payload(self):
        """``json.loads`` accepts ``NaN``; canonical JSON cannot write it."""

        peer = build_peer()
        rwset = ReadWriteSet.build(writes=[WriteItem("k", b'{"a": "x", "b": NaN}', is_crdt=True)])
        good = crdt_tx(peer, 2, "k", {"ok": "kept"})
        _, plan = run_algorithm1(peer, [endorsed_tx(peer, rwset, 1), good])
        assert plan.forced_codes == {0: ValidationCode.BAD_PAYLOAD}
        assert from_bytes(plan.replacement_writes[1][0].value) == {"ok": "kept"}

    @pytest.mark.parametrize(
        "state", [{"entries": {"a": -1}}, {"a": "x"}, [1, 2], {"entries": {"a": 1.5}}]
    )
    def test_malformed_counter_between_good_votes_is_refused_not_a_crash(self, state):
        """Every registered decoder used to raise KeyError/TypeError/ValueError
        on a malformed ``state``: one crafted vote stopped every committer."""

        from repro.core.peer import CRDTPeer
        from repro.crdt import GCounter
        from repro.crdt.registry import crdt_to_dict_envelope

        peer = build_peer(peer_cls=CRDTPeer)
        votes = [crdt_to_dict_envelope(GCounter().increment(voter)) for voter in ("v1", "v2")]
        crafted = {"$fabriccrdt": 1, "crdt": "g-counter", "state": state}
        txs = [crdt_tx(peer, 1, "votes", votes[0]), crdt_tx(peer, 2, "votes", crafted),
               crdt_tx(peer, 3, "votes", votes[1])]
        block, plan = run_algorithm1(peer, txs)
        assert plan.forced_codes == {1: ValidationCode.BAD_PAYLOAD}
        tally = crdt_to_dict_envelope(GCounter().increment("v1").increment("v2"))
        assert from_bytes(plan.replacement_writes[0][0].value) == tally
        committed = peer.validate_and_commit(block)
        assert [status.code for status in statuses_from_block(committed)] == [
            ValidationCode.VALID, ValidationCode.BAD_PAYLOAD, ValidationCode.VALID,
        ]
        assert from_bytes(peer.ledger.state.get_value("votes")) == tally

    @staticmethod
    def nested_bytes(levels: int) -> bytes:
        """A JSON object nested ``levels`` containers deep, as raw bytes."""

        return b'{"a":' * levels + b'"x"' + b"}" * levels

    def test_nesting_at_the_limit_merges(self):
        peer = build_peer()
        rwset = ReadWriteSet.build(
            writes=[WriteItem("k", self.nested_bytes(MAX_NESTING_DEPTH), is_crdt=True)]
        )
        _, plan = run_algorithm1(peer, [endorsed_tx(peer, rwset, 1)])
        assert plan.forced_codes == {}
        assert plan.replacement_writes[0][0].value == self.nested_bytes(MAX_NESTING_DEPTH)

    @pytest.mark.parametrize("levels", (MAX_NESTING_DEPTH + 1, 600, 100_000))
    def test_deeper_nesting_forces_bad_payload_not_a_crash(self, levels):
        """600 levels used to raise ``RecursionError`` out of the merge, and
        100 000 out of the JSON parser: one transaction stopped every peer."""

        peer = build_peer()
        rwset = ReadWriteSet.build(
            writes=[WriteItem("k", self.nested_bytes(levels), is_crdt=True)]
        )
        good = crdt_tx(peer, 2, "k", {"ok": "kept"})
        _, plan = run_algorithm1(peer, [endorsed_tx(peer, rwset, 1), good])
        assert plan.forced_codes == {0: ValidationCode.BAD_PAYLOAD}
        assert from_bytes(plan.replacement_writes[1][0].value) == {"ok": "kept"}


class TestSeeding:
    def test_literal_algorithm_starts_empty(self):
        peer = build_peer()
        peer.ledger.state.apply_write(
            "k", to_bytes({"l": ["committed"]}), Version(0, 0)
        )
        tx = crdt_tx(peer, 1, "k", {"l": ["new"]})
        _, plan = run_algorithm1(peer, [tx], config=CRDTConfig(seed_from_state=False))
        assert from_bytes(plan.replacement_writes[0][0].value) == {"l": ["new"]}

    def test_seeded_merge_includes_committed_state(self):
        peer = build_peer()
        peer.ledger.state.apply_write(
            "k", to_bytes({"l": ["committed"]}), Version(0, 0)
        )
        tx = crdt_tx(peer, 1, "k", {"l": ["new"]})
        _, plan = run_algorithm1(peer, [tx], config=CRDTConfig(seed_from_state=True))
        merged = from_bytes(plan.replacement_writes[0][0].value)
        assert merged == {"l": ["committed", "new"]}
