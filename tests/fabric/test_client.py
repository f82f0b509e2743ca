"""Tests for client-side endorsement collection and assembly."""

import pytest

from repro.common.errors import EndorsementError
from repro.contract import Context, Contract, query, transaction
from repro.fabric.chaincode import ChaincodeRegistry
from repro.fabric.client import (
    AssembledTransaction,
    Client,
    EndorsementRoundFailure,
    select_endorsing_orgs,
)
from repro.fabric.identity import MembershipRegistry
from repro.fabric.peer import Peer
from repro.fabric.policy import EndorsementPolicy, and_policy, or_policy

from .helpers import seed_state


class Writer(Contract):
    name = "writer"

    @transaction
    def put(self, ctx: Context, key: str, value: str) -> dict:
        ctx.state.put(key, {"value": value})
        return {"ok": True}

    @query
    def read(self, ctx: Context, key: str) -> dict:
        return {"value": ctx.state.get(key)}

    @transaction
    def boom(self, ctx: Context) -> dict:
        raise RuntimeError("chaincode crash")


def build_world(num_orgs=3):
    membership = MembershipRegistry()
    chaincodes = ChaincodeRegistry()
    chaincodes.deploy(Writer())
    peers = [
        Peer(membership.enroll(f"Org{i + 1}", "peer0"), membership, chaincodes)
        for i in range(num_orgs)
    ]
    client = Client(membership.enroll("Org1", "client0"), membership)
    return membership, peers, client


class TestSelectEndorsingOrgs:
    def test_or_picks_single(self):
        policy = EndorsementPolicy(or_policy("Org1", "Org2", "Org3"))
        assert select_endorsing_orgs(policy, ["Org1", "Org2", "Org3"]) == ["Org1"]

    def test_and_picks_all(self):
        policy = EndorsementPolicy(and_policy("Org1", "Org3"))
        assert select_endorsing_orgs(policy, ["Org1", "Org2", "Org3"]) == ["Org1", "Org3"]

    def test_unsatisfiable_raises(self):
        policy = EndorsementPolicy(and_policy("Org1", "Org9"))
        with pytest.raises(EndorsementError):
            select_endorsing_orgs(policy, ["Org1", "Org2"])


class TestEndorsementRound:
    def test_successful_round(self):
        _, peers, client = build_world()
        policy = EndorsementPolicy(or_policy("Org1", "Org2", "Org3"))
        proposal = client.new_proposal("ch", "writer", "put", ("k", "v"), policy)
        outcome = client.endorse_at(proposal, peers[:1])
        assert isinstance(outcome, AssembledTransaction)
        assert outcome.envelope.tx_id == proposal.tx_id
        assert len(outcome.envelope.endorsements) == 1
        assert outcome.envelope.client_signature is not None

    def test_chaincode_error_reported(self):
        _, peers, client = build_world()
        policy = EndorsementPolicy(or_policy("Org1"))
        proposal = client.new_proposal("ch", "writer", "boom", (), policy)
        outcome = client.endorse_at(proposal, peers[:1])
        assert isinstance(outcome, EndorsementRoundFailure)
        assert outcome.failures[0].chaincode_error is not None

    def test_policy_needing_two_orgs(self):
        _, peers, client = build_world()
        policy = EndorsementPolicy(and_policy("Org1", "Org2"))
        proposal = client.new_proposal("ch", "writer", "put", ("k", "v"), policy)
        outcome = client.endorse_at(proposal, peers[:2])
        assert isinstance(outcome, AssembledTransaction)
        assert len(outcome.envelope.endorsements) == 2

    def test_insufficient_orgs_fail(self):
        _, peers, client = build_world()
        policy = EndorsementPolicy(and_policy("Org1", "Org2"))
        proposal = client.new_proposal("ch", "writer", "put", ("k", "v"), policy)
        outcome = client.endorse_at(proposal, peers[:1])
        assert isinstance(outcome, EndorsementRoundFailure)


class TestDivergentResponses:
    def test_largest_consistent_group_wins(self):
        """Peers at different heights return different rwsets; the client
        groups them and picks a policy-satisfying group (SDK behaviour)."""

        _, peers, client = build_world()
        # Make Org2's peer see different committed state for the read.
        seed_state(peers[1], "k", {"value": "divergent"}, 0, 0)
        policy = EndorsementPolicy(or_policy("Org1", "Org2", "Org3"))
        proposal = client.new_proposal("ch", "writer", "read", ("k",), policy)
        outcome = client.endorse_at(proposal, peers)
        assert isinstance(outcome, AssembledTransaction)
        # Org1+Org3 agree (both see the key absent): their group is larger.
        assert len(outcome.responses) == 2
        endorsers = {r.endorser for r in outcome.responses}
        assert endorsers == {"Org1.peer0", "Org3.peer0"}

    def test_divergence_fails_strict_and_policy(self):
        _, peers, client = build_world(num_orgs=2)
        seed_state(peers[1], "k", {"value": "divergent"}, 0, 0)
        policy = EndorsementPolicy(and_policy("Org1", "Org2"))
        proposal = client.new_proposal("ch", "writer", "read", ("k",), policy)
        outcome = client.endorse_at(proposal, peers)
        assert isinstance(outcome, EndorsementRoundFailure)

    def test_no_responses(self):
        _, _, client = build_world()
        policy = EndorsementPolicy(or_policy("Org1"))
        proposal = client.new_proposal("ch", "writer", "put", ("k", "v"), policy)
        outcome = client.assemble(proposal, [])
        assert isinstance(outcome, EndorsementRoundFailure)


class TestNonces:
    def test_distinct_tx_ids_for_identical_calls(self):
        _, peers, client = build_world()
        policy = EndorsementPolicy(or_policy("Org1"))
        first = client.new_proposal("ch", "writer", "put", ("k", "v"), policy)
        second = client.new_proposal("ch", "writer", "put", ("k", "v"), policy)
        assert first.tx_id != second.tx_id
