"""Transports: how proposals, envelopes, and blocks move through a channel.

A :class:`Transport` binds a :class:`~repro.gateway.channel.Channel` to one
delivery mechanism.  The base class owns the whole client side of a
submission — the lifecycle is written once:

* **propose** — the client's signed proposal under the chaincode's policy,
  and the :class:`SubmittedTransaction` handle its outcome will land on;
* **settle** — assemble the endorsement round, record it on the handle,
  fire the failure hook, record the ``submit`` span, and say whether there
  is an envelope to broadcast (a failed round and a read-only invocation
  are never ordered, paper §3);
* **evaluate** — a read-only invocation endorsed by the anchor peer.

A transport implements only *how a message moves*: how a proposal reaches
its endorsers, how an envelope reaches the orderer, and how to wait for a
commit.  Three exist:

* :class:`SyncTransport` (here) — everything happens inline during the
  call, with no clock; blocks are dispatched to all peers as they are cut
  and :meth:`~SyncTransport.flush` stands in for the batch timeout.
* :class:`~repro.gateway.des.DESTransport` — the discrete-event transport
  behind the paper's timed experiments, where proposal/endorsement/commit
  latencies come from a :class:`~repro.fabric.costmodel.CostModel`.
* :class:`~repro.net.transport.SocketTransport` — the wire protocol to a
  cluster of real processes.

All hand back the same :class:`SubmittedTransaction`, and on all of them
every outcome surfaces at ``commit_status()`` / ``result()``, never at
``submit_async()`` — so callers (the
:class:`~repro.gateway.gateway.Contract` API) never branch on transport.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from ..common.serialization import from_bytes
from ..common.types import Json, TxStatus, ValidationCode
from ..fabric.block import Block
from ..fabric.client import (
    AssembledTransaction,
    Client,
    EndorsementRoundFailure,
    select_endorsing_orgs,
)
from ..fabric.orderer import OrderingService
from ..fabric.transaction import EndorsementFailure, Proposal, ProposalResponse
from ..telemetry.lifecycle import record_phase
from .channel import Channel
from .errors import CommitError, EndorseError, GatewayError, SubmitError

#: Callback fired when an endorsement round fails: ``(tx_id, time)``.
EndorsementFailureHook = Callable[[str, float], None]

#: What one endorser sent back for a proposal.
EndorserReply = Union[ProposalResponse, EndorsementFailure]


class SubmittedTransaction:
    """Handle on one submitted transaction (Fabric Gateway's namesake type).

    Created by :meth:`Contract.submit_async`; :meth:`commit_status` drives
    the transport (flushing the pending batch, or running the simulation)
    until the transaction's fate is known and returns the
    :class:`~repro.common.types.TxStatus`.
    """

    def __init__(
        self,
        transport: "Transport",
        tx_id: str,
        submit_time: float,
        chaincode: Optional[str] = None,
        function: Optional[str] = None,
    ) -> None:
        self._transport = transport
        self.tx_id = tx_id
        self.submit_time = submit_time
        #: Per-transaction metadata: which chaincode function this was.
        self.chaincode = chaincode
        self.function = function
        #: The client flow still resolving this transaction's endorsement —
        #: a simulation process or event (DES) or an asyncio task (sockets).
        self.flow: object = None
        #: False once the endorsement round showed the transaction is never
        #: ordered: it failed, or the invocation was read-only (§3).
        self.ordered = True
        #: Set when the endorsement round failed; ``commit_status()`` raises
        #: :class:`EndorseError` (on every transport there, never at
        #: ``submit_async()``).
        self.endorse_failure: Optional[EndorsementRoundFailure] = None
        #: Set when the endorsed envelope could not be handed to the orderer
        #: (socket transport); ``commit_status()`` raises it.
        self.submit_error: Optional[SubmitError] = None
        #: The :class:`~repro.fabric.transaction.ChaincodeEvent` the handler
        #: set during endorsement (``ctx.events.set``), if any; available
        #: once the endorsement round resolved.
        self.chaincode_event: object = None
        self._result_bytes: Optional[bytes] = None
        #: The status of a read-only transaction (it has none on the ledger).
        self._readonly_status: Optional[TxStatus] = None

    def record_endorsement(
        self,
        outcome: Union[AssembledTransaction, EndorsementRoundFailure],
        resolved_at: float,
    ) -> None:
        """Copy the endorsement round (what ``Client.assemble`` returned) onto
        this handle — the one way any outcome reaches it: the failure, or the
        chaincode result and event and, for a read-only transaction, "never
        ordered" with its status."""

        if isinstance(outcome, EndorsementRoundFailure):
            self.endorse_failure = outcome
            self.ordered = False
            return
        envelope = outcome.envelope
        self._result_bytes = envelope.chaincode_result
        self.chaincode_event = envelope.event
        if envelope.rwset.is_read_only:
            # Read transactions are not ordered or committed (paper §3).
            self.ordered = False
            self._readonly_status = TxStatus(
                tx_id=self.tx_id,
                code=ValidationCode.VALID,
                submit_time=self.submit_time,
                commit_time=resolved_at,
            )

    @property
    def done(self) -> bool:
        """True once the commit status is known without further driving."""

        if not self.ordered or self.submit_error is not None:
            return True
        return self.tx_id in self._transport.channel.statuses

    def commit_status(self) -> TxStatus:
        """Resolve this transaction's final status, driving the transport.

        On the synchronous transport an unresolved transaction is sitting in
        the orderer's pending batch, so the batch is flushed; on the DES
        transport the simulation is stepped until the anchor peer commits
        the transaction; on sockets the flow and then the anchor mirror are
        awaited.  Raises :class:`EndorseError` if the endorsement round
        failed (the transaction was never ordered).
        """

        if not self.done:
            self._transport.wait_for(self)
        if self.endorse_failure is not None:
            raise EndorseError(self.endorse_failure)
        if not self.ordered:
            return self._readonly_status
        status = self._transport.channel.statuses.get(self.tx_id)
        if status is not None:
            return status
        if self.submit_error is not None:
            raise self.submit_error
        raise CommitError(self.tx_id, f"transaction {self.tx_id} never committed")

    def result(self) -> Json:
        """The chaincode result of the endorsed invocation, deserialized."""

        if self._result_bytes is None and not self.done:
            self._transport.wait_for(self)
        if self.endorse_failure is not None:
            raise EndorseError(self.endorse_failure)
        if self.submit_error is not None:
            raise self.submit_error
        if self._result_bytes is None:
            raise CommitError(self.tx_id, "no chaincode result available")
        return from_bytes(self._result_bytes)

    def __repr__(self) -> str:
        return f"SubmittedTransaction(tx_id={self.tx_id!r}, done={self.done})"


@dataclass(slots=True)
class Submission:
    """What a transport carries while a proposal is with its endorsers."""

    tx: SubmittedTransaction
    client: Client
    proposal: Proposal
    on_endorsement_failure: Optional[EndorsementFailureHook]
    #: When the submission began, on the telemetry clock (``submit`` span start).
    started: float


class Transport(ABC):
    """One way of moving transactions through a :class:`Channel`."""

    channel: Channel

    #: Telemetry context for the client's ``submit`` spans (``None`` = off);
    #: they run on its clock — simulated seconds (DES) or wall-clock (sockets).
    telemetry = None

    #: The transport's notion of current time (0.0 when clockless).
    now: float = 0.0

    def delivery_schedule(self):
        """How event-service deliveries run on this transport.

        Clockless transports deliver inline (synchronously at publish);
        the DES transport overrides this to schedule deliveries as
        zero-delay events at commit instants — see
        :mod:`repro.events.scheduling`.
        """

        from ..events.scheduling import InlineSchedule

        return InlineSchedule()

    def event_source(self, peer_index: int = 0):
        """The peer an event stream attaches to; indices are absolute, never
        relative.  A transport whose peers are remote overrides this to make
        sure the stream has a ledger to replay from."""

        peers = self.channel.peers
        if not 0 <= peer_index < len(peers):
            raise GatewayError(
                f"peer_index {peer_index} out of range (channel has {len(peers)} peers)"
            )
        return peers[peer_index]

    # -- the client side of a submission, identical on every transport -----------

    def propose(
        self, client: Client, chaincode: str, function: str, args: Sequence[str]
    ) -> Proposal:
        """``client``'s proposal for one invocation, under the chaincode's policy."""

        channel = self.channel
        return client.new_proposal(
            channel.name, chaincode, function, args, channel.policy_for(chaincode), self.now
        )

    def begin(
        self,
        client: Client,
        chaincode: str,
        function: str,
        args: Sequence[str],
        on_endorsement_failure: Optional[EndorsementFailureHook] = None,
    ) -> Submission:
        """Propose one transaction and create the handle its outcome lands on."""

        started = self.telemetry.now() if self.telemetry is not None else 0.0
        proposal = self.propose(client, chaincode, function, args)
        tx = SubmittedTransaction(
            self, proposal.tx_id, proposal.submit_time, chaincode, function
        )
        return Submission(tx, client, proposal, on_endorsement_failure, started)

    def endorsers(self, proposal: Proposal) -> list:
        """The channel peers a proposal is sent to: the first peer of each org
        of a minimal set that satisfies its policy."""

        channel = self.channel
        orgs = select_endorsing_orgs(proposal.policy, channel.org_names)
        return [channel.peers_of(org)[0] for org in orgs]

    @staticmethod
    def assemble(
        client: Client, proposal: Proposal, replies: Sequence[EndorserReply]
    ) -> Union[AssembledTransaction, EndorsementRoundFailure]:
        """The endorsement round's outcome, from the endorsers' replies in
        the order they arrived."""

        responses, failures = [], []
        for reply in replies:
            (responses if isinstance(reply, ProposalResponse) else failures).append(reply)
        return client.assemble(proposal, responses, failures)

    def settle(
        self, submission: Submission, replies: Sequence[EndorserReply]
    ) -> Union[AssembledTransaction, EndorsementRoundFailure]:
        """Every endorser has answered: record the round on the handle.

        Afterwards ``submission.tx.ordered`` says whether the outcome's
        envelope goes to the orderer; once it has, the transport calls
        ``submitted(submission, "ordered")``.
        """

        tx = submission.tx
        outcome = self.assemble(submission.client, submission.proposal, replies)
        tx.record_endorsement(outcome, self.now)
        if tx.endorse_failure is not None:
            if submission.on_endorsement_failure is not None:
                submission.on_endorsement_failure(tx.tx_id, self.now)
            self.submitted(submission, "endorse_failed")
        elif not tx.ordered:
            self.submitted(submission, "read_only")
        return outcome

    def submitted(self, submission: Submission, outcome: str) -> None:
        """Record the ``submit`` span: proposal creation -> the envelope
        handed to ordering, or the round that showed there is none."""

        telemetry = self.telemetry
        if telemetry is not None:
            record_phase(
                telemetry, "submit", submission.tx.tx_id,
                submission.started, telemetry.now(), node="client", outcome=outcome,
            )

    def endorsed_by_anchor(
        self, client: Client, chaincode: str, function: str, args: Sequence[str]
    ) -> Union[AssembledTransaction, EndorsementRoundFailure]:
        """One invocation endorsed by the anchor peer alone, now."""

        proposal = self.propose(client, chaincode, function, args)
        return self.assemble(client, proposal, self._ask_anchor(proposal))

    def evaluate(
        self, chaincode: str, function: str, args: Sequence[str], client_index: int = 0
    ) -> Json:
        """Run a read-only invocation against the anchor peer.

        Evaluation is identical on every transport: endorsed by the anchor
        peer at the transport's current time, never ordered.  On the DES
        transport it is instantaneous — it observes committed state without
        consuming endorsement capacity, like a side-channel ledger read in
        a real benchmark harness.
        """

        outcome = self.endorsed_by_anchor(
            self.channel.client(client_index), chaincode, function, args
        )
        if isinstance(outcome, EndorsementRoundFailure):
            raise EndorseError(outcome)
        return from_bytes(outcome.envelope.chaincode_result)

    def submit_async(
        self,
        chaincode: str,
        function: str,
        args: Sequence[str],
        client_index: int = 0,
        on_endorsement_failure: Optional[EndorsementFailureHook] = None,
    ) -> SubmittedTransaction:
        """Endorse and order one transaction; do not wait for commit.

        Whatever becomes of it — committed, rejected by validation, a failed
        endorsement round, a read-only invocation — surfaces at the handle's
        ``commit_status()`` / ``result()``, never here.
        """

        submission = self.begin(
            self.channel.client(client_index), chaincode, function, args,
            on_endorsement_failure,
        )
        self._start(submission)
        return submission.tx

    def submit_batch(
        self,
        chaincode: str,
        function: str,
        calls: Sequence[Sequence[str]],
        client_index: int = 0,
        on_endorsement_failure: Optional[EndorsementFailureHook] = None,
    ) -> list[SubmittedTransaction]:
        """Submit many invocations of ``function`` as one coalesced burst.

        ``calls`` is one argument tuple per transaction.  The base
        implementation degenerates to per-transaction ``submit_async`` —
        correct on any transport; the DES transport overrides it to run one
        client flow for the whole batch (one proposal burst out, one
        envelope burst to the orderer) instead of one flow process per
        transaction.
        """

        return [
            self.submit_async(
                chaincode,
                function,
                args,
                client_index=client_index,
                on_endorsement_failure=on_endorsement_failure,
            )
            for args in calls
        ]

    # -- how a message moves: what each transport implements ---------------------

    @abstractmethod
    def _start(self, submission: Submission) -> None:
        """Send the proposal to its endorsers; once they answered, ``settle``
        and hand an ordered transaction's envelope to the orderer."""

    def _ask_anchor(self, proposal: Proposal) -> list[EndorserReply]:
        """The anchor peer's answer to an evaluation: in-process, one call."""

        return [self.channel.anchor_peer.endorse(proposal, self.now)]

    @abstractmethod
    def wait_for(self, tx: SubmittedTransaction) -> None:
        """Drive the transport until ``tx.done`` (or raise why it never will be)."""

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Release transport resources (and the channel's).  Idempotent.

        In-process transports only own their channel; transports with real
        I/O (sockets, child processes) override this and release those
        first.
        """

        self.channel.close()

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class SyncTransport(Transport):
    """Inline transport: the full lifecycle runs during the call.

    Owns the ordering service; cut blocks are committed on every peer
    immediately.  This is the engine behind :class:`LocalNetwork`.
    """

    def __init__(
        self, channel: Channel, ordering_cls: type[OrderingService] = OrderingService
    ) -> None:
        self.channel = channel
        self.orderer = ordering_cls(channel.config.orderer)

    def _start(self, submission: Submission) -> None:
        proposal, now = submission.proposal, self.now
        replies = [peer.endorse(proposal, now) for peer in self.endorsers(proposal)]
        outcome = self.settle(submission, replies)
        if submission.tx.ordered:
            self.dispatch(self.orderer.submit(outcome.envelope, now), now)
            self.submitted(submission, "ordered")

    def wait_for(self, tx: SubmittedTransaction) -> None:
        # An unresolved transaction sits in the orderer's pending batch.
        self.flush(tx.submit_time)

    def flush(self, now: float = 0.0) -> Optional[Block]:
        """Force-cut the pending batch and commit it everywhere."""

        block = self.orderer.flush(now)
        if block is not None:
            self.dispatch([block], now)
        return block

    def dispatch(self, blocks: Sequence[Block], now: float) -> None:
        for block in blocks:
            for peer in self.channel.peers:
                peer.validate_and_commit(block, commit_time=now)
