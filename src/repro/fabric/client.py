"""Client / gateway logic: gather endorsements and assemble transactions.

The client side of Steps 1–3 in Figure 1: pick endorsing peers that can
satisfy the policy, compare the returned read-write sets (Fabric clients
must receive *identical* proposal responses, otherwise the transaction is
doomed to fail validation), and assemble the signed envelope.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..common.errors import EndorsementError
from ..common.hashing import sha256
from ..common.types import Counterstats
from .identity import Identity, MembershipRegistry
from .policy import PolicyNode
from .transaction import (
    EndorsementFailure,
    Proposal,
    ProposalResponse,
    TransactionEnvelope,
    endorsed_payload_bytes,
)


@dataclass
class AssembledTransaction:
    """Outcome of a successful endorsement round."""

    envelope: TransactionEnvelope
    responses: tuple[ProposalResponse, ...]


@dataclass
class EndorsementRoundFailure:
    """Outcome of a failed endorsement round, with per-peer reasons."""

    tx_id: str
    reason: str
    failures: tuple[EndorsementFailure, ...] = ()


def select_endorsing_orgs(
    policy: PolicyNode, available_orgs: Sequence[str]
) -> list[str]:
    """Choose a minimal set of orgs that can satisfy ``policy``.

    Deterministic: tries smallest subsets first, in sorted order.  Raises
    :class:`EndorsementError` if no subset of available orgs satisfies it.
    """

    mentioned = sorted(policy.orgs_mentioned() & set(available_orgs))
    for size in range(1, len(mentioned) + 1):
        for combo in itertools.combinations(mentioned, size):
            if policy.satisfied_by(combo):
                return list(combo)
    raise EndorsementError(
        f"policy {policy} cannot be satisfied by available orgs {sorted(available_orgs)}"
    )


class Client:
    """A submitting client bound to one identity.

    The transport (how proposals reach peers) is the caller's: every
    :class:`~repro.gateway.transport.Transport` performs the sends itself and
    hands the replies to :meth:`assemble`.
    """

    def __init__(self, identity: Identity, membership: MembershipRegistry) -> None:
        self.identity = identity
        self.membership = membership
        self.stats = Counterstats()
        self._nonce = itertools.count()

    @property
    def name(self) -> str:
        return self.identity.qualified_name

    def next_nonce(self) -> int:
        return next(self._nonce)

    def new_proposal(
        self,
        channel: str,
        chaincode: str,
        function: str,
        args: Sequence[str],
        submit_time: float = 0.0,
    ) -> Proposal:
        self.stats.bump("proposals_created")
        return Proposal.create(
            channel=channel,
            chaincode=chaincode,
            function=function,
            args=tuple(args),
            creator=self.name,
            nonce=self.next_nonce(),
            submit_time=submit_time,
        )

    # -- assembly ----------------------------------------------------------------

    def assemble(
        self,
        proposal: Proposal,
        policy: PolicyNode,
        responses: Sequence[ProposalResponse],
        failures: Sequence[EndorsementFailure] = (),
    ) -> Union[AssembledTransaction, EndorsementRoundFailure]:
        """Group consistent responses and build the envelope.

        Mirrors how the Fabric SDK and VSCC actually interact: a transaction
        carries exactly one read-write set, and only endorsement signatures
        over *that* set count towards ``policy`` (the deployed chaincode's,
        which VSCC evaluates again on every peer).  Peers can transiently
        diverge (one committed a block the other has not yet), so the client
        groups responses by identical (rwset, result) and picks the largest
        group that can satisfy the policy, preferring the earliest-received
        on ties.  Only if no group can satisfy the policy does the round fail.
        """

        if not responses:
            self.stats.bump("endorsement_round_failures")
            return EndorsementRoundFailure(
                proposal.tx_id, "no endorsements received", tuple(failures)
            )

        groups: dict[bytes, list[ProposalResponse]] = {}
        order: list[bytes] = []
        for response in responses:
            key = endorsed_payload_bytes(
                response.rwset, response.chaincode_result, response.event
            )
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(response)

        chosen: Optional[list[ProposalResponse]] = None
        for key in sorted(order, key=lambda k: -len(groups[k])):
            group = groups[key]
            endorsing_orgs = {
                self.membership.org_of(response.endorser).name for response in group
            }
            if policy.satisfied_by(endorsing_orgs):
                chosen = group
                break
        if chosen is None:
            self.stats.bump("endorsement_round_failures")
            return EndorsementRoundFailure(
                proposal.tx_id,
                f"no consistent endorsement group satisfies {policy}",
                tuple(failures),
            )

        reference = chosen[0]
        reference_hash = endorsed_payload_bytes(
            reference.rwset, reference.chaincode_result, reference.event
        )
        payload_hash = sha256(proposal.header_bytes() + reference_hash)
        envelope = TransactionEnvelope(
            proposal=proposal,
            rwset=reference.rwset,
            endorsements=tuple(response.endorsement for response in chosen),
            chaincode_result=reference.chaincode_result,
            client_signature=self.membership.sign_as(self.name, payload_hash),
            event=reference.event,
        )
        self.stats.bump("transactions_assembled")
        return AssembledTransaction(envelope, tuple(chosen))
