"""Transports: how proposals, envelopes, and blocks move through a channel.

A :class:`Transport` binds a :class:`~repro.gateway.channel.Channel` to one
delivery mechanism.  Two implementations exist:

* :class:`SyncTransport` (here) — everything happens inline during the
  call, with no clock; blocks are dispatched to all peers as they are cut
  and :meth:`~SyncTransport.flush` stands in for the batch timeout.
* :class:`~repro.gateway.des.DESTransport` — the discrete-event transport
  behind the paper's timed experiments, where proposal/endorsement/commit
  latencies come from a :class:`~repro.fabric.costmodel.CostModel`.

Both hand back the same :class:`SubmittedTransaction`, so callers (the
:class:`~repro.gateway.gateway.Contract` API) never branch on transport.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Optional, Sequence

from ..common.serialization import from_bytes
from ..common.types import Json, TxStatus, ValidationCode
from ..fabric.block import Block
from ..fabric.client import EndorsementRoundFailure, select_endorsing_orgs
from ..fabric.orderer import OrderingService
from .channel import Channel
from .errors import CommitError, EndorseError, SubmitError

#: Callback fired when an endorsement round fails: ``(tx_id, time)``.
EndorsementFailureHook = Callable[[str, float], None]


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
        ordered: bool = True,
        result_bytes: Optional[bytes] = None,
        flow: object = None,
        endorse_failure: Optional[EndorsementRoundFailure] = None,
        chaincode: Optional[str] = None,
        function: Optional[str] = None,
        chaincode_event: object = None,
    ) -> None:
        self._transport = transport
        self.tx_id = tx_id
        self.submit_time = submit_time
        #: False for read-only invocations, which are never ordered (§3).
        self.ordered = ordered
        self._result_bytes = result_bytes
        #: The client flow still resolving this transaction's endorsement —
        #: a simulation process (DES) or an asyncio task (sockets).
        self.flow = flow
        #: Set when the endorsement round failed; the transaction was never
        #: ordered and ``commit_status()`` raises :class:`EndorseError`.
        #: On every transport the failure surfaces at ``commit_status()``,
        #: never at ``submit_async()`` — identical control flow everywhere.
        self.endorse_failure = endorse_failure
        #: Set when the endorsed envelope could not be handed to the orderer
        #: (socket transport); ``commit_status()`` raises it.
        self.submit_error: Optional[SubmitError] = None
        #: Cached status for never-ordered (read-only) transactions, so
        #: repeated ``commit_status()`` calls return equal values.
        self._readonly_status: Optional[TxStatus] = None
        #: Per-transaction metadata: which chaincode function this was.
        self.chaincode = chaincode
        self.function = function
        #: The :class:`~repro.fabric.transaction.ChaincodeEvent` the handler
        #: set during endorsement (``ctx.events.set``), if any.  On the
        #: deferred-outcome transports (DES, sockets) it becomes available
        #: once the endorsement flow resolves (``commit_status()`` / ``result()``).
        self.chaincode_event = chaincode_event

    def record_endorsement(self, outcome, resolved_at: float) -> None:
        """Copy a flow's endorsement round (what ``Client.assemble`` returned)
        onto this handle: the failure, or the chaincode result and event — and,
        for a read-only transaction, "never ordered" with its status cached."""

        if isinstance(outcome, EndorsementRoundFailure):
            self.endorse_failure = outcome
            return
        envelope = outcome.envelope
        if self._result_bytes is None:
            self._result_bytes = envelope.chaincode_result
        if self.chaincode_event is None:
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

        if self.endorse_failure is not None or self.submit_error is not None or not self.ordered:
            return True
        return self.tx_id in self._transport.channel.statuses

    def commit_status(self) -> TxStatus:
        """Resolve this transaction's final status, driving the transport.

        On the synchronous transport an unresolved transaction is sitting in
        the orderer's pending batch, so the batch is flushed; on the DES
        transport the simulation is stepped until the anchor peer commits
        the transaction.  Raises :class:`EndorseError` if the endorsement
        round failed (the transaction was never ordered).
        """

        if self.endorse_failure is not None:
            raise EndorseError(self.endorse_failure)
        if not self.ordered:
            if self._readonly_status is None:
                self._readonly_status = TxStatus(
                    tx_id=self.tx_id,
                    code=ValidationCode.VALID,
                    submit_time=self.submit_time,
                    commit_time=self.submit_time,
                )
            return self._readonly_status
        return self._transport.wait_for(self)

    def result(self) -> Json:
        """The chaincode result of the endorsed invocation, deserialized."""

        if self.endorse_failure is not None:
            raise EndorseError(self.endorse_failure)
        if self._result_bytes is None:
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


class Transport(ABC):
    """One way of moving transactions through a :class:`Channel`."""

    channel: Channel

    @property
    def now(self) -> float:
        """The transport's notion of current time (0.0 when clockless)."""

        return 0.0

    def delivery_schedule(self):
        """How event-service deliveries run on this transport.

        Clockless transports deliver inline (synchronously at publish);
        the DES transport overrides this to schedule deliveries as
        zero-delay events at commit instants — see
        :mod:`repro.events.scheduling`.
        """

        from ..events.scheduling import InlineSchedule

        return InlineSchedule()

    @abstractmethod
    def submit_async(
        self,
        chaincode: str,
        function: str,
        args: Sequence[str],
        client_index: int = 0,
        on_endorsement_failure: Optional[EndorsementFailureHook] = None,
    ) -> SubmittedTransaction:
        """Endorse and order one transaction; do not wait for commit."""

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

        channel = self.channel
        client = channel.client(client_index)
        policy = channel.policy_for(chaincode)
        now = self.now
        proposal = client.new_proposal(channel.name, chaincode, function, args, policy, now)
        outcome = client.endorse_at(proposal, [channel.anchor_peer], now)
        if isinstance(outcome, EndorsementRoundFailure):
            raise EndorseError(outcome)
        return from_bytes(outcome.envelope.chaincode_result)

    @abstractmethod
    def wait_for(self, tx: SubmittedTransaction) -> TxStatus:
        """Drive the transport until ``tx`` resolves; return its status."""

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

    def submit_async(
        self,
        chaincode: str,
        function: str,
        args: Sequence[str],
        client_index: int = 0,
        on_endorsement_failure: Optional[EndorsementFailureHook] = None,
        now: float = 0.0,
    ) -> SubmittedTransaction:
        channel = self.channel
        client = channel.client(client_index)
        policy = channel.policy_for(chaincode)
        proposal = client.new_proposal(channel.name, chaincode, function, args, policy, now)
        endorsing_orgs = select_endorsing_orgs(policy, channel.org_names)
        endorsing_peers = [channel.peers_of(org)[0] for org in endorsing_orgs]
        outcome = client.endorse_at(proposal, endorsing_peers, now)
        if isinstance(outcome, EndorsementRoundFailure):
            if on_endorsement_failure is not None:
                on_endorsement_failure(proposal.tx_id, now)
            return SubmittedTransaction(
                self, proposal.tx_id, now, ordered=False, endorse_failure=outcome,
                chaincode=chaincode, function=function,
            )
        result_bytes = outcome.envelope.chaincode_result
        if outcome.envelope.rwset.is_read_only:
            # Read transactions are not ordered or committed (paper §3).
            return SubmittedTransaction(
                self, proposal.tx_id, now, ordered=False, result_bytes=result_bytes,
                chaincode=chaincode, function=function,
                chaincode_event=outcome.envelope.event,
            )
        self.dispatch(self.orderer.submit(outcome.envelope, now), now)
        return SubmittedTransaction(
            self, proposal.tx_id, now, result_bytes=result_bytes,
            chaincode=chaincode, function=function,
            chaincode_event=outcome.envelope.event,
        )

    def wait_for(self, tx: SubmittedTransaction) -> TxStatus:
        status = self.channel.statuses.get(tx.tx_id)
        if status is None:
            self.flush(tx.submit_time)
            status = self.channel.statuses.get(tx.tx_id)
        if status is None:
            raise CommitError(tx.tx_id, f"transaction {tx.tx_id} never committed")
        return status

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
