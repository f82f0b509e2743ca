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
from repro.fabric.policy import and_policy, or_policy
from repro.fabric.transaction import ProposalResponse

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
    chaincodes.deploy(Writer(), or_policy(*(f"Org{i + 1}" for i in range(num_orgs))))
    peers = [
        Peer(membership.enroll(f"Org{i + 1}", "peer0"), membership, chaincodes)
        for i in range(num_orgs)
    ]
    client = Client(membership.enroll("Org1", "client0"), membership)
    return membership, peers, client


def endorse(client, proposal, policy, peers):
    """One in-process endorsement round: each peer endorses, the client assembles."""

    replies = [peer.endorse(proposal, 0.0) for peer in peers]
    responses = [reply for reply in replies if isinstance(reply, ProposalResponse)]
    failures = [reply for reply in replies if not isinstance(reply, ProposalResponse)]
    return client.assemble(proposal, policy, responses, failures)


class TestSelectEndorsingOrgs:
    def test_or_picks_single(self):
        policy = or_policy("Org1", "Org2", "Org3")
        assert select_endorsing_orgs(policy, ["Org1", "Org2", "Org3"]) == ["Org1"]

    def test_and_picks_all(self):
        policy = and_policy("Org1", "Org3")
        assert select_endorsing_orgs(policy, ["Org1", "Org2", "Org3"]) == ["Org1", "Org3"]

    def test_unsatisfiable_raises(self):
        policy = and_policy("Org1", "Org9")
        with pytest.raises(EndorsementError):
            select_endorsing_orgs(policy, ["Org1", "Org2"])


class TestEndorsementRound:
    def test_successful_round(self):
        _, peers, client = build_world()
        policy = or_policy("Org1", "Org2", "Org3")
        proposal = client.new_proposal("ch", "writer", "put", ("k", "v"))
        outcome = endorse(client, proposal, policy, peers[:1])
        assert isinstance(outcome, AssembledTransaction)
        assert outcome.envelope.tx_id == proposal.tx_id
        assert len(outcome.envelope.endorsements) == 1
        assert outcome.envelope.client_signature is not None

    def test_chaincode_error_reported(self):
        _, peers, client = build_world()
        policy = or_policy("Org1")
        proposal = client.new_proposal("ch", "writer", "boom", ())
        outcome = endorse(client, proposal, policy, peers[:1])
        assert isinstance(outcome, EndorsementRoundFailure)
        assert outcome.failures[0].chaincode_error is not None

    def test_policy_needing_two_orgs(self):
        _, peers, client = build_world()
        policy = and_policy("Org1", "Org2")
        proposal = client.new_proposal("ch", "writer", "put", ("k", "v"))
        outcome = endorse(client, proposal, policy, peers[:2])
        assert isinstance(outcome, AssembledTransaction)
        assert len(outcome.envelope.endorsements) == 2

    def test_insufficient_orgs_fail(self):
        _, peers, client = build_world()
        policy = and_policy("Org1", "Org2")
        proposal = client.new_proposal("ch", "writer", "put", ("k", "v"))
        outcome = endorse(client, proposal, policy, peers[:1])
        assert isinstance(outcome, EndorsementRoundFailure)


class TestDivergentResponses:
    def test_largest_consistent_group_wins(self):
        """Peers at different heights return different rwsets; the client
        groups them and picks a policy-satisfying group (SDK behaviour)."""

        _, peers, client = build_world()
        # Make Org2's peer see different committed state for the read.
        seed_state(peers[1], "k", {"value": "divergent"}, 0, 0)
        policy = or_policy("Org1", "Org2", "Org3")
        proposal = client.new_proposal("ch", "writer", "read", ("k",))
        outcome = endorse(client, proposal, policy, peers)
        assert isinstance(outcome, AssembledTransaction)
        # Org1+Org3 agree (both see the key absent): their group is larger.
        assert len(outcome.responses) == 2
        endorsers = {r.endorser for r in outcome.responses}
        assert endorsers == {"Org1.peer0", "Org3.peer0"}

    def test_divergence_fails_strict_and_policy(self):
        _, peers, client = build_world(num_orgs=2)
        seed_state(peers[1], "k", {"value": "divergent"}, 0, 0)
        policy = and_policy("Org1", "Org2")
        proposal = client.new_proposal("ch", "writer", "read", ("k",))
        outcome = endorse(client, proposal, policy, peers)
        assert isinstance(outcome, EndorsementRoundFailure)

    def test_no_responses(self):
        _, _, client = build_world()
        policy = or_policy("Org1")
        proposal = client.new_proposal("ch", "writer", "put", ("k", "v"))
        outcome = client.assemble(proposal, policy, [])
        assert isinstance(outcome, EndorsementRoundFailure)


class TestNonces:
    def test_distinct_tx_ids_for_identical_calls(self):
        _, peers, client = build_world()
        first = client.new_proposal("ch", "writer", "put", ("k", "v"))
        second = client.new_proposal("ch", "writer", "put", ("k", "v"))
        assert first.tx_id != second.tx_id
