"""The discrete-event transport: client flows on the simulation clock.

:class:`DESTransport` is the timed counterpart of
:class:`~repro.gateway.transport.SyncTransport`.  It wraps the channel's
peers in :class:`~repro.fabric.nodes.PeerNode` pipelines, runs an
:class:`~repro.fabric.nodes.OrdererNode`, and models every hop with the
latency distributions of a :class:`~repro.fabric.costmodel.CostModel`.

``submit_async`` schedules the client-side flow as a simulation process and
returns immediately; :meth:`SubmittedTransaction.commit_status` then *steps
the simulation* until the anchor peer has committed the transaction, so
Gateway code reads identically on both transports.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from ..common.config import NetworkConfig
from ..common.errors import FabricError
from ..common.rng import SeedSequence
from ..fabric.client import EndorsementRoundFailure
from ..fabric.costmodel import CostModel
from ..fabric.nodes import OrdererNode, PeerNode, send_after
from ..fabric.orderer import OrderingService
from ..fabric.transaction import TransactionEnvelope
from ..sim.engine import Environment
from ..sim.resources import Store
from .channel import Channel
from .errors import CommitError
from .transport import EndorsementFailureHook, Submission, SubmittedTransaction, Transport


class DESTransport(Transport):
    """Timed transport for one channel on a discrete-event environment."""

    def __init__(
        self,
        env: Environment,
        channel: Channel,
        cost: Optional[CostModel] = None,
        ordering_cls: type[OrderingService] = OrderingService,
    ) -> None:
        self.env = env
        self.channel = channel
        self.cost = cost if cost is not None else CostModel()
        self._seeds = SeedSequence(channel.config.seed)

        self.peer_nodes: list[PeerNode] = [
            PeerNode(env, peer, self.cost, self._seeds.stream(f"peer/{peer.name}"))
            for peer in channel.peers
        ]
        self.ordering = ordering_cls(channel.config.orderer)
        self.orderer_node = OrdererNode(
            env, self.ordering, self.cost, self._seeds.stream("orderer")
        )
        for node in self.peer_nodes:
            self.orderer_node.attach_peer(node)
        self._flow_rng = self._seeds.stream("flows")

    # -- telemetry (opt-in, out-of-band) -------------------------------------------

    def enable_telemetry(self, telemetry) -> None:
        """Wire a :class:`~repro.telemetry.Telemetry` context into the run.

        Binds its clock to the simulation clock (spans carry virtual
        seconds), hands the context to every timed node for lifecycle
        spans, and instruments the protocol engines (peers, ordering) into
        its metrics registry.  Nothing here draws RNG or schedules events,
        so an instrumented run's deterministic metrics are byte-identical
        to an uninstrumented one.
        """

        env = self.env  # the clock holds the environment, not this transport
        telemetry.bind_clock(lambda: env.now)
        self.telemetry = telemetry
        self.ordering.enable_telemetry(telemetry)
        self.orderer_node.telemetry = telemetry
        for node in self.peer_nodes:
            node.telemetry = telemetry
            node.peer.enable_telemetry(telemetry)

    # -- accessors -----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.env.now

    def delivery_schedule(self):
        """Event deliveries become zero-delay events at commit instants.

        The committing peer process never blocks on event consumers (a real
        deliver service is a separate stream), and simulated timings are
        unchanged — delivery carries no service time and draws no RNG.
        """

        from ..events.scheduling import SimSchedule

        return SimSchedule(self.env)

    @property
    def config(self) -> NetworkConfig:
        return self.channel.config

    @property
    def anchor_node(self) -> PeerNode:
        return self.peer_nodes[0]

    # -- bootstrap (before the clock starts) ---------------------------------------------

    def bootstrap(
        self, chaincode: str, function: str, args_list: Sequence[Sequence[str]]
    ) -> None:
        """Run setup transactions synchronously at time zero.

        Used to populate the ledger before the measured run (§7.2).  Every
        peer commits the resulting blocks directly, bypassing service times.
        """

        channel = self.channel
        blocks = []
        for args in args_list:
            outcome = self.endorsed_by_anchor(
                channel.clients[0], chaincode, function, args, channel.policy_for(chaincode)
            )
            if isinstance(outcome, EndorsementRoundFailure):
                raise FabricError(f"bootstrap endorsement failed: {outcome.reason}")
            blocks.extend(self.ordering.submit(outcome.envelope, 0.0))
        final = self.ordering.flush(0.0)
        if final is not None:
            blocks.append(final)
        for block in blocks:
            self.orderer_node.archive[block.number] = block
            for peer in channel.peers:
                peer.validate_and_commit(block, commit_time=0.0)

    # -- transaction flow ------------------------------------------------------------------

    def _endorsed(self, submission: Submission, reply_box: Store) -> Generator:
        """One transaction's endorsement round, from proposals sent to settled.

        The per-transaction half both flows share: collect every endorser's
        reply, then the base class's ``settle``.
        """

        replies = []
        for _ in self.peer_nodes:
            replies.append((yield reply_box.get()))
        return self.settle(submission, replies)

    def _broadcast(self, ordered: list[tuple[Submission, TransactionEnvelope]]) -> None:
        """One envelope burst to ordering: a single latency draw."""

        delay = self.cost.client_to_orderer.sample(self._flow_rng)
        for submission, envelope in ordered:
            send_after(self.env, self.orderer_node.envelope_box, envelope, delay)
            # The whole burst leaves the client at the same instant.
            self.submitted(submission, "ordered")

    def flow(self, submission: Submission) -> Generator:
        """One transaction's client-side lifecycle (run as a process).

        The proposal goes to every peer (the Caliper/Fabric-SDK default).
        Returns (as the process value) the assembled transaction or the
        endorsement-round failure.  Commit outcomes are observed through
        peer event hubs, not through this flow — the client is open-loop.
        """

        reply_box: Store = Store(self.env)
        for node in self.peer_nodes:
            send_after(
                self.env,
                node.proposal_box,
                (submission.proposal, reply_box),
                self.cost.client_to_peer.sample(self._flow_rng),
            )
        outcome = yield from self._endorsed(submission, reply_box)
        if submission.tx.ordered:
            self._broadcast([(submission, outcome.envelope)])
        return outcome

    def _start(self, submission: Submission) -> None:
        submission.tx.flow = self.env.process(self.flow(submission))

    def submit_batch(
        self,
        chaincode: str,
        function: str,
        calls: Sequence[Sequence[str]],
        client_index: int = 0,
        on_endorsement_failure: Optional[EndorsementFailureHook] = None,
    ) -> list[SubmittedTransaction]:
        """Coalesce a burst of submissions into one client flow.

        All proposals are stamped at the current instant and ride one
        client→peer message per endorsing peer (a single link-latency draw
        covers the batch); once every endorsement resolves, the assembled
        envelopes go to the orderer as one burst behind a single
        client→orderer draw.  One simulation process serves the whole batch
        — the async-submission batching the open-loop driver's
        process-per-transaction model could not express.
        """

        if not calls:
            return []
        client = self.channel.client(client_index)
        submissions = [
            self.begin(client, chaincode, function, args, on_endorsement_failure)
            for args in calls
        ]
        for submission in submissions:
            # A batch member's flow is the event its settlement triggers.
            submission.tx.flow = self.env.event()
        self.env.process(self._batch_flow(submissions))
        return [submission.tx for submission in submissions]

    def _batch_flow(self, submissions: list[Submission]) -> Generator:
        """One batched client lifecycle: proposal burst → envelope burst."""

        reply_boxes = [Store(self.env) for _ in submissions]
        for node in self.peer_nodes:
            # One latency draw per peer: the batch travels as one message.
            delay = self.cost.client_to_peer.sample(self._flow_rng)
            for submission, reply_box in zip(submissions, reply_boxes):
                send_after(
                    self.env, node.proposal_box, (submission.proposal, reply_box), delay
                )
        ordered = []
        for submission, reply_box in zip(submissions, reply_boxes):
            outcome = yield from self._endorsed(submission, reply_box)
            if submission.tx.ordered:
                ordered.append((submission, outcome.envelope))
            submission.tx.flow.succeed(outcome)
        if ordered:
            self._broadcast(ordered)

    def close(self) -> None:
        """Detach the timed nodes from each other, then release the channel.

        The simulation's processes belong to the environment, which the
        caller created and closes (:meth:`~repro.sim.engine.Environment.close`).
        """

        self.orderer_node.close()
        super().close()

    def wait_for(self, tx: SubmittedTransaction) -> None:
        """Step the simulation until ``tx`` resolves on the anchor peer."""

        while not tx.done:
            if self.env.peek() == float("inf"):
                raise CommitError(
                    tx.tx_id,
                    f"simulation ran out of events before {tx.tx_id} resolved",
                )
            self.env.step()
