"""Unit tests for Algorithm 1 (ValidateMergeBlock)."""

from itertools import permutations, product

import pytest

from repro.common.config import CRDTConfig
from repro.common.serialization import from_bytes, to_bytes
from repro.common.types import ReadItem, ReadWriteSet, ValidationCode, Version, WriteItem
from repro.contract import Contract
from repro.core.blockmerge import validate_merge_block
from repro.core.peer import CRDTPeer
from repro.crdt import GCounter, PNCounter
from repro.crdt.json import MAX_NESTING_DEPTH
from repro.crdt.registry import crdt_to_dict_envelope
from repro.fabric.block import GENESIS_PREVIOUS_HASH, Block
from repro.fabric.chaincode import ShimStub
from repro.fabric.events import statuses_from_block
from repro.fabric.identity import MembershipRegistry
from repro.fabric.store import MemoryStore, SqliteStore

from ..fabric.helpers import build_peer, endorsed_tx, seed_block, seed_state, write_rwset


#: A well-formed G-Counter envelope, as a handle writes it.
A_COUNTER = {"$fabriccrdt": 1, "crdt": "g-counter", "state": {"total": 1}}


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

    def test_a_key_holding_a_dot_keeps_its_list_items(self):
        # Unquoted in the content-ID path text, the key "a.b" read like the
        # path a -> b: the second "X" was deduplicated against an item it
        # never met, and the block committed {"a": {"b": ["X"]}, "a.b": []}.
        peer = build_peer()
        txs = [
            crdt_tx(peer, 1, "k", {"a": {"b": ["X"]}}),
            crdt_tx(peer, 2, "k", {"a.b": ["X"]}),
        ]
        _, plan = run_algorithm1(peer, txs)
        expected = to_bytes({"a": {"b": ["X"]}, "a.b": ["X"]})
        assert [plan.replacement_writes[i][0].value for i in (0, 1)] == [expected, expected]

    def test_a_value_decoded_once_for_two_keys_commits_as_if_alone(self):
        # Byte-identical values share one decoded object (the block's decode
        # cache); merging more into the first key must not reach the second.
        peer = build_peer()
        shared = {"l": [{"t": "1"}, ["x"]], "m": {"k": "v"}}
        more = {"l": [{"t": "2"}], "m": {"k2": "w"}}
        txs = [
            crdt_tx(peer, 1, "k1", shared),
            crdt_tx(peer, 2, "k1", more),
            crdt_tx(peer, 3, "k2", shared),
        ]
        _, plan = run_algorithm1(peer, txs)
        assert plan.work["decode_cache_hits"] >= 1
        _, alone_k1 = run_algorithm1(peer, txs[:2])
        _, alone_k2 = run_algorithm1(peer, txs[2:])
        assert plan.replacement_writes[1] == alone_k1.replacement_writes[1]
        assert plan.replacement_writes[2] == alone_k2.replacement_writes[0]
        assert from_bytes(plan.replacement_writes[2][0].value) == shared

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


class TestUndeployedChaincode:
    def test_its_crdt_write_is_invalid_and_never_merged(self):
        peer = build_peer(peer_cls=CRDTPeer)
        ghost = endorsed_tx(
            peer, write_rwset(("k", {"l": ["ghost"]}), crdt=True), 1, chaincode="ghost"
        )
        txs = [crdt_tx(peer, 0, "k", {"l": ["a"]}), ghost, crdt_tx(peer, 2, "k", {"l": ["b"]})]
        committed = peer.validate_and_commit(build_block(peer, txs))
        assert committed.metadata.flags == [
            ValidationCode.VALID,
            ValidationCode.INVALID_ENDORSER_TRANSACTION,
            ValidationCode.VALID,
        ]
        assert sorted(from_bytes(peer.ledger.state.get_value("k"))["l"]) == ["a", "b"]


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

    def test_integer_past_the_digit_limit_forces_bad_payload(self):
        peer = build_peer()
        huge = b'{"a":' + b"1" * 5000 + b"}"
        rwset = ReadWriteSet.build(writes=[WriteItem("k", huge, is_crdt=True)])
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

    @staticmethod
    def assert_refused_then_next_merges(envelope):
        peer = build_peer()
        bad = crdt_tx(peer, 1, "k", envelope)
        good = crdt_tx(peer, 2, "k", {"l": ["ok"]})
        _, plan = run_algorithm1(peer, [bad, good])
        assert plan.forced_codes == {0: ValidationCode.BAD_PAYLOAD}
        assert plan.skip_mvcc == frozenset({1})
        assert from_bytes(plan.replacement_writes[1][0].value) == {"l": ["ok"]}

    def test_envelope_of_an_unregistered_type_forces_bad_payload(self):
        self.assert_refused_then_next_merges(
            {"$fabriccrdt": 1, "crdt": "no-such-type", "state": {}}
        )

    #: A well-formed state of each type that no ``ctx.crdt`` handle writes.
    NO_HANDLE_STATES = {
        "g-set": {"elements": ["a"]},
        "2p-set": {"added": {"elements": ["a"]}, "removed": {"elements": []}},
        "mv-register": {"entries": [{"value": "v", "vv": {"a": 1}}]},
        "or-map": {"entries": {"f": {"t1": A_COUNTER}}, "tombstones": {}},
        "rga": {"cells": [{"id": "1@a", "value": "x", "after": "0@", "deleted": False}]},
    }

    @pytest.mark.parametrize("type_name", sorted(NO_HANDLE_STATES))
    def test_envelope_of_a_type_no_handle_writes_forces_bad_payload(self, type_name):
        """Refused like an unknown type: the committer merges only the
        types of ``CRDT_TYPES``."""

        state = self.NO_HANDLE_STATES[type_name]
        self.assert_refused_then_next_merges({"$fabriccrdt": 1, "crdt": type_name, "state": state})

    def test_kind_mix_on_one_key_rejected(self):
        peer = build_peer()
        json_tx = crdt_tx(peer, 1, "k", {"l": ["x"]})
        envelope_tx = crdt_tx(peer, 2, "k", crdt_to_dict_envelope(GCounter(1)))
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

        peer = build_peer()
        counter = crdt_to_dict_envelope(GCounter(1))
        bad = self.two_key_tx(peer, 1, ("k", {"l": ["LEAK"]}), ("k", counter))
        good = crdt_tx(peer, 2, "k", counter)
        _, plan = run_algorithm1(peer, [bad, good])
        assert plan.forced_codes == {0: ValidationCode.BAD_PAYLOAD}
        assert plan.skip_mvcc == frozenset({1})
        assert from_bytes(plan.replacement_writes[1][0].value) == counter

    def test_second_key_of_another_counter_type_leaves_the_first_unmerged(self):
        peer = build_peer()
        one = crdt_to_dict_envelope(GCounter(1))
        other = crdt_to_dict_envelope(PNCounter(-1))
        good = self.two_key_tx(peer, 1, ("g", one), ("p", other))
        leak = crdt_to_dict_envelope(GCounter(1000))
        bad = self.two_key_tx(peer, 2, ("g", leak), ("p", one))
        _, plan = run_algorithm1(peer, [good, bad])
        assert plan.forced_codes == {1: ValidationCode.BAD_PAYLOAD}
        assert from_bytes(plan.replacement_writes[0][0].value) == one

    @staticmethod
    def clashing_envelopes(kind):
        """Two well-formed envelopes of one type whose *contents* refuse to
        merge — no decode or type check can see it, only the merge."""

        from repro.common.clock import LamportTimestamp
        from repro.crdt import HEAD, RGA, TextDocument

        assert kind == "text"  # the one accepted type whose merge can refuse
        one = LamportTimestamp(1, "a")  # one element id with two contents
        pair = (RGA().insert_after(HEAD, one, "ok"), RGA().insert_after(HEAD, one, "LEAK"))
        return tuple(
            crdt_to_dict_envelope(TextDocument("editor", rga))  # the empty one's actor
            for rga in pair
        )

    @pytest.mark.parametrize("kind", ["text"])
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

    @pytest.mark.parametrize("kind", ["text"])
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
        ok, clash = self.clashing_envelopes("text")
        peer.validate_and_commit(build_block(peer, [crdt_tx(peer, 1, "k", ok)]))
        bad = self.two_key_tx(peer, 2, ("a", {"l": ["LEAK"]}), ("k", clash))
        good = crdt_tx(peer, 3, "a", {"l": ["ok"]})
        _, plan = run_algorithm1(peer, [bad, good])
        assert plan.forced_codes == {0: ValidationCode.BAD_PAYLOAD}
        assert from_bytes(plan.replacement_writes[1][0].value) == {"l": ["ok"]}
        assert plan.work["merge_docs"] == 1

    def test_one_transaction_writing_a_state_key_twice_merges_both(self):
        peer = build_peer()
        a, b = (crdt_to_dict_envelope(GCounter(amount)) for amount in (2, 3))
        _, plan = run_algorithm1(peer, [self.two_key_tx(peer, 1, ("k", a), ("k", b))])
        merged = crdt_to_dict_envelope(GCounter(5))
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

    @pytest.mark.parametrize("state", [{"total": -1}, {"a": "x"}, [1, 2], {"total": 1.5}])
    def test_malformed_counter_between_good_votes_is_refused_not_a_crash(self, state):
        """Every registered decoder used to raise KeyError/TypeError/ValueError
        on a malformed ``state``: one crafted vote stopped every committer."""

        peer = build_peer(peer_cls=CRDTPeer)
        votes = [crdt_to_dict_envelope(GCounter(1))] * 2  # +1 each
        crafted = {"$fabriccrdt": 1, "crdt": "g-counter", "state": state}
        txs = [crdt_tx(peer, 1, "votes", votes[0]), crdt_tx(peer, 2, "votes", crafted),
               crdt_tx(peer, 3, "votes", votes[1])]
        block, plan = run_algorithm1(peer, txs)
        assert plan.forced_codes == {1: ValidationCode.BAD_PAYLOAD}
        tally = crdt_to_dict_envelope(GCounter(2))
        assert from_bytes(plan.replacement_writes[0][0].value) == tally
        committed = peer.validate_and_commit(block)
        assert [status.code for status in statuses_from_block(committed)] == [
            ValidationCode.VALID, ValidationCode.BAD_PAYLOAD, ValidationCode.VALID,
        ]
        assert from_bytes(peer.ledger.state.get_value("votes")) == tally

    #: Counter writes a committer must refuse, as the raw bytes a client
    #: could sign: each names a well-formed envelope of a handle's type.
    MALFORMED_COUNTER_WRITES = {
        "negative": b'{"$fabriccrdt":1,"crdt":"g-counter","state":{"total":-1}}',
        "bool": b'{"$fabriccrdt":1,"crdt":"g-counter","state":{"total":true}}',
        "float": b'{"$fabriccrdt":1,"crdt":"g-counter","state":{"total":1.0}}',
        "string": b'{"$fabriccrdt":1,"crdt":"g-counter","state":{"total":"1"}}',
        "missing-total": b'{"$fabriccrdt":1,"crdt":"g-counter","state":{}}',
        "past-digit-limit": (
            b'{"$fabriccrdt":1,"crdt":"g-counter","state":{"total":' + b"9" * 5000 + b"}}"
        ),
        "at-digit-limit": (
            b'{"$fabriccrdt":1,"crdt":"g-counter","state":{"total":' + b"9" * 4300 + b"}}"
        ),
        "past-64-bits": b'{"$fabriccrdt":1,"crdt":"g-counter","state":{"total":%d}}' % 2**63,
        # A valid amount on its own, but 40 + 1 committed before it overflow.
        "sum-past-64-bits": (
            b'{"$fabriccrdt":1,"crdt":"g-counter","state":{"total":%d}}' % (2**63 - 1)
        ),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED_COUNTER_WRITES))
    def test_malformed_counter_write_commits_the_block_as_without_it(self, case):
        crafted = WriteItem("votes", self.MALFORMED_COUNTER_WRITES[case], is_crdt=True)

        def commit(with_crafted: bool) -> tuple:
            peer = build_peer(peer_cls=CRDTPeer)
            seed_state(peer, "votes", crdt_to_dict_envelope(GCounter(40)))
            txs = [crdt_tx(peer, 1, "votes", crdt_to_dict_envelope(GCounter(1)))]
            if with_crafted:
                txs.append(endorsed_tx(peer, ReadWriteSet.build(writes=[crafted]), 2))
            txs.append(crdt_tx(peer, 3, "votes", crdt_to_dict_envelope(GCounter(2))))
            committed = peer.validate_and_commit(build_block(peer, txs))
            codes = [status.code for status in statuses_from_block(committed)]
            return codes, peer.ledger.state.get_value("votes")

        valid, bad = ValidationCode.VALID, ValidationCode.BAD_PAYLOAD
        codes, committed = commit(with_crafted=True)
        assert codes == [valid, bad, valid]
        assert commit(with_crafted=False) == ([valid, valid], committed)
        assert from_bytes(committed)["state"] == {"total": 43}

    @pytest.mark.parametrize(
        "counter", (GCounter(2**62), PNCounter(-(2**62) - 50)), ids=("g", "pn")
    )
    def test_writes_summing_past_64_bits_in_one_block_refuse_the_overflowing_one(
        self, counter
    ):
        """Each write fits in 64 bits and the committed total plus the first
        does too; the second would push the sum out, so it is refused and the
        block commits as without it (an unbounded sum could reach an integer
        the committer cannot serialize, stopping every peer on one block)."""

        def commit(with_second: bool) -> tuple:
            peer = build_peer(peer_cls=CRDTPeer)
            seed_state(peer, "k", crdt_to_dict_envelope(type(counter)(40)))
            big = crdt_to_dict_envelope(counter)
            txs = [crdt_tx(peer, 1, "k", big), crdt_tx(peer, 2, "k", big)][: 1 + with_second]
            txs.append(crdt_tx(peer, 3, "k", crdt_to_dict_envelope(type(counter)(2))))
            committed = peer.validate_and_commit(build_block(peer, txs))
            codes = [status.code for status in statuses_from_block(committed)]
            return codes, peer.ledger.state.get_value("k")

        valid, bad = ValidationCode.VALID, ValidationCode.BAD_PAYLOAD
        codes, committed = commit(with_second=True)
        assert codes == [valid, bad, valid]
        assert commit(with_second=False) == ([valid, valid], committed)
        assert from_bytes(committed)["state"] == {"total": 42 + counter.value()}

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


class TestCountersAsOperations:
    """A counter write is its transaction's amount, which the committer adds
    once per VALID transaction in block order.  Exactly-once comes from the
    ledger: a resubmitted transaction ID is ``DUPLICATE_TXID``.  Every order
    and block cutting of concurrent writes commits the same bytes."""

    #: (G-Counter amount, PN-Counter delta, G-Counter actor) of four
    #: transactions endorsed against one committed state: two share an
    #: explicit actor, and one decrements.
    OPS = ((1, 5, "shared"), (2, -3, "shared"), (3, 4, None), (4, 1, "x"))
    #: Committed totals of the G-Counter ``hits`` and the PN-Counter ``balance``.
    HITS, BALANCE = 10, 7

    def _peer(self, membership, store):
        """A FabricCRDT peer over ``store``, both counters committed."""

        peer = build_peer(membership=membership, peer_cls=CRDTPeer, store=store)
        seed_block(peer, {
            "hits": crdt_to_dict_envelope(GCounter(self.HITS)),
            "balance": crdt_to_dict_envelope(PNCounter(self.BALANCE)),
        })
        return peer

    @staticmethod
    def _endorse(peer, nonce, ops):
        """The transaction the counter handles write over ``peer``'s state."""

        stub = ShimStub(peer.ledger.state, f"tx{nonce}", crdt_deltas=True)
        ctx = _Counters().new_context(stub)
        for amount, delta, actor in ops:
            ctx.crdt.counter("hits").incr(amount, actor=actor)
            ctx.crdt.pn_counter("balance").adjust(delta)
        return endorsed_tx(peer, stub.build_rwset(), nonce)

    @staticmethod
    def _commit(peer, txs) -> list:
        committed = peer.apply_prepared(peer.prepare_block(build_block(peer, txs)))
        return [status.code for status in statuses_from_block(committed)]

    @staticmethod
    def _state(peer) -> tuple:
        return tuple(peer.ledger.state.get_value(key) for key in ("hits", "balance"))

    @staticmethod
    def _totals(state: tuple) -> tuple:
        return tuple(from_bytes(raw)["state"]["total"] for raw in state)

    @staticmethod
    def _cuttings(order):
        """Every way to cut ``order`` into consecutive non-empty blocks."""

        for cuts in product((False, True), repeat=len(order) - 1):
            blocks = [[order[0]]]
            for tx, cut in zip(order[1:], cuts):
                if cut:
                    blocks.append([])
                blocks[-1].append(tx)
            yield blocks

    def test_every_schedule_commits_one_total_on_both_stores(self):
        membership = MembershipRegistry()
        endorser = self._peer(membership, MemoryStore())
        txs = [self._endorse(endorser, nonce, [op]) for nonce, op in enumerate(self.OPS)]
        finals, schedules = set(), 0
        for store_cls in (MemoryStore, SqliteStore):
            for order in permutations(txs):
                for blocks in self._cuttings(order):
                    store = store_cls()
                    peer = self._peer(membership, store)
                    for block in blocks:
                        assert set(self._commit(peer, block)) == {ValidationCode.VALID}
                    finals.add(self._state(peer))
                    schedules += 1
                    store.close()
        assert schedules == 2 * 24 * 8
        (final,) = finals  # byte-identical across schedules and stores
        assert self._totals(final) == (self.HITS + 1 + 2 + 3 + 4, self.BALANCE + 5 - 3 + 4 + 1)

    def test_a_resubmitted_transaction_is_a_duplicate_and_adds_nothing(self):
        peer = self._peer(MembershipRegistry(), MemoryStore())
        txs = [self._endorse(peer, nonce, [op]) for nonce, op in enumerate(self.OPS)]
        assert self._commit(peer, txs[:2]) == [ValidationCode.VALID] * 2
        assert self._commit(peer, [txs[2], txs[0]]) == [
            ValidationCode.VALID, ValidationCode.DUPLICATE_TXID,
        ]
        committed = self._state(peer)
        assert self._commit(peer, [txs[1]]) == [ValidationCode.DUPLICATE_TXID]
        assert self._state(peer) == committed
        assert self._totals(committed) == (self.HITS + 1 + 2 + 3, self.BALANCE + 5 - 3 + 4)

    def test_committed_bytes_do_not_grow_with_the_number_of_actors(self):
        committed = []
        for actors in (["one"] * 40, [f"voter-{i}" for i in range(40)]):
            peer = self._peer(MembershipRegistry(), MemoryStore())
            txs = [self._endorse(peer, n, [(1, 1, actor)]) for n, actor in enumerate(actors)]
            assert set(self._commit(peer, txs)) == {ValidationCode.VALID}
            committed.append(self._state(peer))
        assert committed[0] == committed[1]
        assert self._totals(committed[0]) == (self.HITS + 40, self.BALANCE + 40)


class _Counters(Contract):
    name = "counters"
