"""Tests for the counters extension (future work §9 / FAB-10711)."""

import pytest

from repro.common.errors import ChaincodeError
from repro.common.types import ValidationCode
from repro.contract.handles import CounterHandle, PNCounterHandle
from repro.core.counters import VotingChaincode
from repro.fabric.chaincode import ShimStub
from repro.fabric.store import MemoryStore
from repro.gateway import Gateway

from ..conftest import small_config
from repro.core.network import crdt_network


class TestShimHelpers:
    def test_increment_counter_from_empty(self):
        stub = ShimStub(MemoryStore(), "tx1")
        total = CounterHandle(stub, "hits").incr(3, actor="client0")
        assert total == 3
        write = stub.build_rwset().writes[0]
        assert write.is_crdt

    def test_negative_gcounter_increment_rejected(self):
        stub = ShimStub(MemoryStore(), "tx1")
        with pytest.raises(ChaincodeError):
            CounterHandle(stub, "hits").incr(-1, actor="c")

    def test_pn_counter_decrement(self):
        stub = ShimStub(MemoryStore(), "tx1")
        assert PNCounterHandle(stub, "bal").adjust(5) == 5
        stub2 = ShimStub(MemoryStore(), "tx2")
        assert PNCounterHandle(stub2, "bal").adjust(-2) == -2

    def test_non_envelope_value_rejected(self):
        from repro.common.serialization import to_bytes
        from repro.common.types import Version

        db = MemoryStore()
        db.apply_write("k", to_bytes({"plain": "json"}), Version(0, 0))
        stub = ShimStub(db, "tx1")
        with pytest.raises(ChaincodeError):
            CounterHandle(stub, "k").value()


class TestVotingEndToEnd:
    def _network(self):
        network = crdt_network(small_config(max_message_count=25, crdt_enabled=True))
        network.deploy(VotingChaincode())
        return network, Gateway.connect(network).get_contract("voting")

    def test_concurrent_votes_all_count(self):
        network, voting = self._network()
        tx_ids = []
        for voter in range(9):
            option = ["red", "green", "blue"][voter % 3]
            tx_ids.append(voting.submit_async("vote", "poll", option, f"v{voter}").tx_id)
        network.flush()
        assert all(network.status_of(t) is ValidationCode.VALID for t in tx_ids)
        tally = voting.evaluate("tally", "poll")
        assert tally == {"red": 3, "green": 3, "blue": 3}

    def test_votes_accumulate_across_blocks(self):
        network, voting = self._network()
        for round_num in range(3):
            for voter in range(4):
                voting.submit_async("vote", "poll", "yes", f"r{round_num}v{voter}")
            network.flush()
        tally = voting.evaluate("tally", "poll")
        assert tally == {"yes": 12}

    def test_same_voter_repeated_votes_all_count(self):
        # A vote is a +1 operation whatever the voter: repeats count, in
        # separate blocks and in one.
        network, voting = self._network()
        for _ in range(3):
            voting.submit_async("vote", "poll", "yes", "alice")
            network.flush()
        for _ in range(2):
            voting.submit_async("vote", "poll", "yes", "alice")
        network.flush()
        tally = voting.evaluate("tally", "poll")
        assert tally == {"yes": 5}

    def test_all_peers_agree_on_tally(self):
        network, voting = self._network()
        for voter in range(6):
            voting.submit_async("vote", "poll", "x", f"v{voter}")
        network.flush()
        network.assert_states_converged()
