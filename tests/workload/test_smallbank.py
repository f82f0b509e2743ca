"""SmallBank mode semantics: the §6 trade-offs, made executable.

Three storage modes, three different guarantees under concurrency:

| mode       | all commit? | money conserved? | overdraft possible? |
|------------|-------------|------------------|---------------------|
| plain      | no          | yes              | no                  |
| naive-crdt | yes         | **no**           | (balances LWW)      |
| pn-counter | yes         | yes              | **yes**             |
"""

import pytest

from repro.common.types import ValidationCode
from repro.gateway import EndorseError, Gateway
from repro.workload.smallbank import SmallBankChaincode, total_money

from ..conftest import small_config
from repro.core.network import crdt_network, vanilla_network


def smallbank_contract(network):
    return Gateway.connect(network).get_contract("smallbank")


def bank_network(crdt_enabled=True):
    factory = crdt_network if crdt_enabled else vanilla_network
    network = factory(small_config(max_message_count=20, crdt_enabled=crdt_enabled))
    network.deploy(SmallBankChaincode())
    return network


def create_accounts(network, mode, accounts=("alice", "bob", "carol"), amount=100):
    for account in accounts:
        smallbank_contract(network).submit_async(
            "create_account", account, str(amount), str(amount), mode
        )
    network.flush()
    return list(accounts)


class TestSequentialCorrectness:
    @pytest.mark.parametrize("mode", ["plain", "pn-counter"])
    def test_payment_moves_money(self, mode):
        network = bank_network()
        accounts = create_accounts(network, mode)
        smallbank_contract(network).submit_async("send_payment", "alice", "bob", "30", mode)
        network.flush()
        assert smallbank_contract(network).evaluate("balance", "alice")["checking"] == 70
        assert smallbank_contract(network).evaluate("balance", "bob")["checking"] == 130
        assert total_money(smallbank_contract(network), accounts) == 600

    @pytest.mark.parametrize("mode", ["plain", "pn-counter"])
    def test_amalgamate(self, mode):
        network = bank_network()
        create_accounts(network, mode, accounts=("alice", "bob"))
        smallbank_contract(network).submit_async("amalgamate", "alice", "bob", mode)
        network.flush()
        alice = smallbank_contract(network).evaluate("balance", "alice")
        bob = smallbank_contract(network).evaluate("balance", "bob")
        assert alice["total"] == 0
        assert bob["checking"] == 300 and bob["total"] == 400

    def test_plain_mode_rejects_overdraft_at_execution(self):
        network = bank_network()
        create_accounts(network, "plain", accounts=("alice", "bob"))
        with pytest.raises(EndorseError):
            smallbank_contract(network).submit("send_payment", "alice", "bob", "1000", "plain")

    def test_unknown_mode_rejected(self):
        network = bank_network()
        with pytest.raises(EndorseError):
            smallbank_contract(network).submit("create_account", "zed", "1", "1", "bitcoin")


def concurrent_payments(network, mode, payments):
    """Submit payments that all endorse against one snapshot (one block)."""

    tx_ids = [
        smallbank_contract(network).submit_async("send_payment", src, dst, str(amt), mode).tx_id
        for src, dst, amt in payments
    ]
    network.flush()
    return [network.status_of(tx) for tx in tx_ids]


class TestPlainModeUnderConcurrency:
    def test_conflicts_fail_but_money_is_safe(self):
        network = bank_network(crdt_enabled=True)  # FabricCRDT network, plain writes
        accounts = create_accounts(network, "plain")
        codes = concurrent_payments(
            network,
            "plain",
            [("alice", "bob", 10), ("alice", "carol", 20), ("bob", "carol", 5)],
        )
        assert ValidationCode.MVCC_READ_CONFLICT in codes  # some fail...
        assert total_money(smallbank_contract(network), accounts) == 600  # ...but money conserved


class TestNaiveCrdtModeUnderConcurrency:
    def test_all_commit_but_money_is_created_or_destroyed(self):
        network = bank_network()
        accounts = create_accounts(network, "naive-crdt")
        codes = concurrent_payments(
            network,
            "naive-crdt",
            [("alice", "bob", 10), ("alice", "carol", 20)],
        )
        assert all(code is ValidationCode.VALID for code in codes)
        # Both payments debited alice from the same 100 snapshot: one debit
        # is lost in the LWW merge while both credits stand (or vice versa).
        assert total_money(smallbank_contract(network), accounts) != 600

    def test_double_spend_succeeds(self):
        network = bank_network()
        create_accounts(network, "naive-crdt", accounts=("mallory", "a", "b"), amount=50)
        codes = concurrent_payments(
            network,
            "naive-crdt",
            [("mallory", "a", 50), ("mallory", "b", 50)],
        )
        assert all(code is ValidationCode.VALID for code in codes)
        a = smallbank_contract(network).evaluate("balance", "a")["checking"]
        b = smallbank_contract(network).evaluate("balance", "b")["checking"]
        assert a == 100 and b == 100  # both victims credited from 50 total


class TestPnCounterModeUnderConcurrency:
    def test_all_commit_and_money_conserved(self):
        network = bank_network()
        accounts = create_accounts(network, "pn-counter")
        codes = concurrent_payments(
            network,
            "pn-counter",
            [("alice", "bob", 10), ("alice", "carol", 20), ("bob", "carol", 5)],
        )
        assert all(code is ValidationCode.VALID for code in codes)
        assert total_money(smallbank_contract(network), accounts) == 600
        assert smallbank_contract(network).evaluate("balance", "alice")["checking"] == 70
        assert smallbank_contract(network).evaluate("balance", "carol")["checking"] == 125

    def test_overdraft_possible(self):
        """The price of commutativity: non-negativity cannot be enforced."""

        network = bank_network()
        create_accounts(network, "pn-counter", accounts=("alice", "b", "c"), amount=60)
        codes = concurrent_payments(
            network,
            "pn-counter",
            [("alice", "b", 50), ("alice", "c", 50)],
        )
        assert all(code is ValidationCode.VALID for code in codes)
        alice = smallbank_contract(network).evaluate("balance", "alice")["checking"]
        assert alice == -40  # overdrawn, but globally consistent
        assert total_money(smallbank_contract(network), ["alice", "b", "c"]) == 360

    def test_peers_converge(self):
        network = bank_network()
        accounts = create_accounts(network, "pn-counter")
        concurrent_payments(
            network, "pn-counter", [("alice", "bob", 10), ("bob", "alice", 10)]
        )
        network.assert_states_converged()
        assert total_money(smallbank_contract(network), accounts) == 600
