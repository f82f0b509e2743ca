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
from ..common.types import TxStatus
from ..fabric.client import Client, EndorsementRoundFailure, select_endorsing_orgs
from ..fabric.costmodel import CostModel
from ..fabric.nodes import OrdererNode, PeerNode, send_after
from ..fabric.orderer import OrderingService
from ..fabric.policy import EndorsementPolicy
from ..fabric.transaction import EndorsementFailure, Proposal, ProposalResponse
from ..sim.engine import Environment
from ..sim.resources import Store
from ..telemetry.lifecycle import record_phase
from .channel import Channel
from .errors import CommitError, EndorseError
from .transport import EndorsementFailureHook, SubmittedTransaction, Transport


class DESTransport(Transport):
    """Timed transport for one channel on a discrete-event environment."""

    def __init__(
        self,
        env: Environment,
        channel: Channel,
        cost: Optional[CostModel] = None,
        endorse_at: str = "all",
        ordering_cls: type[OrderingService] = OrderingService,
    ) -> None:
        if endorse_at not in ("all", "policy"):
            raise FabricError(f"unknown endorsement mode: {endorse_at!r}")
        self.env = env
        self.channel = channel
        self.cost = cost if cost is not None else CostModel()
        self.endorse_at = endorse_at
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
        #: Telemetry context (``None`` = off; see :meth:`enable_telemetry`).
        self.telemetry = None

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

        telemetry.bind_clock(lambda: self.env.now)
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

    def endorsing_nodes(self, policy: EndorsementPolicy) -> list[PeerNode]:
        """The peers a client sends a proposal to.

        ``"all"`` mirrors Caliper/Fabric-SDK defaults (send to every peer);
        ``"policy"`` contacts one peer per org of a minimal satisfying set.
        """

        if self.endorse_at == "all":
            return list(self.peer_nodes)
        orgs = select_endorsing_orgs(policy, self.channel.org_names)
        nodes = []
        for org in orgs:
            for node in self.peer_nodes:
                if node.peer.org_name == org:
                    nodes.append(node)
                    break
        return nodes

    # -- bootstrap (before the clock starts) ---------------------------------------------

    def bootstrap(
        self, chaincode: str, function: str, args_list: Sequence[Sequence[str]]
    ) -> None:
        """Run setup transactions synchronously at time zero.

        Used to populate the ledger before the measured run (§7.2).  Every
        peer commits the resulting blocks directly, bypassing service times.
        """

        channel = self.channel
        client = channel.clients[0]
        policy = channel.policy_for(chaincode)
        blocks = []
        for args in args_list:
            proposal = client.new_proposal(
                channel.name, chaincode, function, args, policy, 0.0
            )
            outcome = client.endorse_at(proposal, [channel.anchor_peer])
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

    def flow(
        self,
        client: Client,
        proposal: Proposal,
        on_endorsement_failure: Optional[EndorsementFailureHook] = None,
    ) -> Generator:
        """One transaction's client-side lifecycle (run as a process).

        Returns (as the process value) the assembled transaction or the
        endorsement-round failure.  Commit outcomes are observed through
        peer event hubs, not through this flow — the client is open-loop.
        """

        nodes = self.endorsing_nodes(proposal.policy)
        reply_box: Store = Store(self.env)
        for node in nodes:
            send_after(
                self.env,
                node.proposal_box,
                (proposal, reply_box),
                self.cost.client_to_peer.sample(self._flow_rng),
            )
        responses: list[ProposalResponse] = []
        failures: list[EndorsementFailure] = []
        for _ in range(len(nodes)):
            outcome = yield reply_box.get()
            if isinstance(outcome, ProposalResponse):
                responses.append(outcome)
            else:
                failures.append(outcome)
        assembled = client.assemble(proposal, responses, failures)
        if isinstance(assembled, EndorsementRoundFailure):
            if on_endorsement_failure is not None:
                on_endorsement_failure(proposal.tx_id, self.env.now)
            record_phase(
                self.telemetry, "submit", proposal.tx_id,
                proposal.submit_time, self.env.now,
                node="client", outcome="endorse_failed",
            )
            return assembled
        if assembled.envelope.rwset.is_read_only:
            # Read transactions are not ordered or committed (paper §3),
            # matching the synchronous transport.
            record_phase(
                self.telemetry, "submit", proposal.tx_id,
                proposal.submit_time, self.env.now,
                node="client", outcome="read_only",
            )
            return assembled
        send_after(
            self.env,
            self.orderer_node.envelope_box,
            assembled.envelope,
            self.cost.client_to_orderer.sample(self._flow_rng),
        )
        # Submit span: proposal creation -> envelope handed to ordering.
        record_phase(
            self.telemetry, "submit", proposal.tx_id,
            proposal.submit_time, self.env.now, node="client", outcome="ordered",
        )
        return assembled

    def submit_async(
        self,
        chaincode: str,
        function: str,
        args: Sequence[str],
        client_index: int = 0,
        on_endorsement_failure: Optional[EndorsementFailureHook] = None,
    ) -> SubmittedTransaction:
        channel = self.channel
        client = channel.client(client_index)
        policy = channel.policy_for(chaincode)
        proposal = client.new_proposal(
            channel.name, chaincode, function, args, policy, submit_time=self.env.now
        )
        process = self.env.process(self.flow(client, proposal, on_endorsement_failure))
        return SubmittedTransaction(
            self, proposal.tx_id, self.env.now, flow=process,
            chaincode=chaincode, function=function,
        )

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
        channel = self.channel
        client = channel.client(client_index)
        policy = channel.policy_for(chaincode)
        now = self.env.now
        proposals = [
            client.new_proposal(
                channel.name, chaincode, function, args, policy, submit_time=now
            )
            for args in calls
        ]
        # Per-transaction outcome events: SubmittedTransaction.flow duck-types
        # a Process (triggered/ok/value), so wait_for() reads batch members
        # exactly like singleton flows.
        outcomes = [self.env.event() for _ in proposals]
        self.env.process(
            self._batch_flow(client, proposals, outcomes, on_endorsement_failure)
        )
        return [
            SubmittedTransaction(
                self, proposal.tx_id, now, flow=outcome,
                chaincode=chaincode, function=function,
            )
            for proposal, outcome in zip(proposals, outcomes)
        ]

    def _batch_flow(
        self,
        client: Client,
        proposals: list[Proposal],
        outcomes: list,
        on_endorsement_failure: Optional[EndorsementFailureHook],
    ) -> Generator:
        """One batched client lifecycle: proposal burst → envelope burst."""

        nodes = self.endorsing_nodes(proposals[0].policy)
        reply_boxes = [Store(self.env) for _ in proposals]
        for node in nodes:
            # One latency draw per peer: the batch travels as one message.
            delay = self.cost.client_to_peer.sample(self._flow_rng)
            for proposal, reply_box in zip(proposals, reply_boxes):
                send_after(self.env, node.proposal_box, (proposal, reply_box), delay)
        envelopes = []
        for proposal, reply_box, outcome in zip(proposals, reply_boxes, outcomes):
            responses: list[ProposalResponse] = []
            failures: list[EndorsementFailure] = []
            for _ in range(len(nodes)):
                reply = yield reply_box.get()
                if isinstance(reply, ProposalResponse):
                    responses.append(reply)
                else:
                    failures.append(reply)
            assembled = client.assemble(proposal, responses, failures)
            if isinstance(assembled, EndorsementRoundFailure):
                if on_endorsement_failure is not None:
                    on_endorsement_failure(proposal.tx_id, self.env.now)
                record_phase(
                    self.telemetry, "submit", proposal.tx_id,
                    proposal.submit_time, self.env.now,
                    node="client", outcome="endorse_failed",
                )
            elif assembled.envelope.rwset.is_read_only:
                record_phase(
                    self.telemetry, "submit", proposal.tx_id,
                    proposal.submit_time, self.env.now,
                    node="client", outcome="read_only",
                )
            else:
                envelopes.append(assembled.envelope)
            outcome.succeed(assembled)
        if envelopes:
            # One envelope burst to ordering: a single latency draw.
            delay = self.cost.client_to_orderer.sample(self._flow_rng)
            for envelope in envelopes:
                send_after(self.env, self.orderer_node.envelope_box, envelope, delay)
            if self.telemetry is not None:
                # The whole burst leaves the client at the same instant.
                for envelope in envelopes:
                    record_phase(
                        self.telemetry, "submit", envelope.tx_id,
                        envelope.proposal.submit_time, self.env.now,
                        node="client", outcome="ordered",
                    )

    def wait_for(self, tx: SubmittedTransaction) -> TxStatus:
        """Step the simulation until ``tx`` resolves on the anchor peer."""

        while True:
            flow = tx.flow
            if flow is not None and flow.triggered and flow.ok:
                if flow.value is not None:
                    tx.record_endorsement(flow.value, self.env.now)
                if tx.endorse_failure is not None:
                    raise EndorseError(tx.endorse_failure)
                if not tx.ordered:
                    return tx._readonly_status
            status = self.channel.statuses.get(tx.tx_id)
            if status is not None:
                return status
            if self.env.peek() == float("inf"):
                raise CommitError(
                    tx.tx_id,
                    f"simulation ran out of events before {tx.tx_id} resolved",
                )
            self.env.step()
