"""Timed protocol nodes: peer and orderer pipelines on the DES kernel.

Each peer runs two service pipelines, matching a real peer's internals:

* an **endorsement pool** (``CostModel.endorsement_pool_size`` concurrent
  chaincode executors) serving proposal requests;
* a single-threaded **commit pipeline** consuming blocks in order —
  validation/merge work is computed when a block's service starts, the state
  change becomes visible when it ends, so proposals endorsed during the
  window simulate against pre-block state.  This window is precisely the
  endorse-to-commit latency the paper identifies as the source of MVCC
  conflicts (§3).

The orderer consumes a total-order mailbox and cuts blocks by count, bytes,
and batch timeout (timers are epoch-guarded so a count-cut invalidates the
pending timeout).  Clients are *not* defined here — the DES transport
(:class:`repro.gateway.des.DESTransport`) runs client flows against these
mailboxes.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Generator, Optional

from ..sim.engine import Environment
from ..sim.resources import Resource, Store
from ..telemetry.lifecycle import record_commit_phases, record_phase
from .costmodel import CostModel
from .orderer import OrderingService
from .peer import Peer
from .transaction import Proposal, ProposalResponse


def send_after(env: Environment, store: Store, item: Any, delay: float) -> None:
    """Deliver ``item`` into ``store`` after ``delay`` (fire-and-forget)."""

    def _deliver() -> Generator:
        if delay > 0:
            yield env.timeout(delay)
        yield store.put(item)

    env.process(_deliver())


class PeerNode:
    """A peer's timed service pipelines."""

    def __init__(
        self,
        env: Environment,
        peer: Peer,
        cost: CostModel,
        rng: random.Random,
    ) -> None:
        self.env = env
        self.peer = peer
        self.cost = cost
        self.rng = rng
        self.proposal_box: Store = Store(env)
        self.block_box: Store = Store(env)
        self.endorse_pool = Resource(env, cost.endorsement_pool_size)
        #: Telemetry context (set by the transport's ``enable_telemetry``).
        #: Spans are recorded against ``env.now`` — the pipeline's timed
        #: windows — never against wall clock; recording draws no RNG and
        #: schedules no events, so simulated timings are unchanged.
        self.telemetry = None
        #: Blocks received ahead of the chain tip, awaiting their gap.
        self._pending_blocks: dict[int, Any] = {}
        #: Sim-time each pending block arrived (for deliver spans).
        self._recv_times: dict[int, float] = {}
        #: Set by the network: callable(from_number, to_number) requesting
        #: redelivery of missed blocks (Fabric's deliver-service catch-up).
        self.request_catchup: Optional[Callable[[int, int], None]] = None
        env.process(self._proposal_loop())
        env.process(self._commit_loop())

    @property
    def name(self) -> str:
        return self.peer.name

    # -- endorsement pipeline ------------------------------------------------

    def _proposal_loop(self) -> Generator:
        while True:
            proposal, reply_box = yield self.proposal_box.get()
            self.env.process(self._handle_proposal(proposal, reply_box))

    def _handle_proposal(self, proposal: Proposal, reply_box: Store) -> Generator:
        arrived = self.env.now
        request = self.endorse_pool.request()
        yield request
        try:
            # Simulate against the state visible when execution starts.
            outcome = self.peer.endorse(proposal, self.env.now)
            if isinstance(outcome, ProposalResponse):
                service = self.cost.endorse_time(
                    len(outcome.rwset.reads), len(outcome.rwset.writes)
                )
            else:
                service = self.cost.endorse_time(0, 0)
            if service > 0:
                yield self.env.timeout(service)
        finally:
            self.endorse_pool.release(request)
        # Endorse span: proposal arrival (incl. pool queueing) -> service end.
        record_phase(
            self.telemetry, "endorse", proposal.tx_id, arrived, self.env.now,
            node=self.name, ok=isinstance(outcome, ProposalResponse),
        )
        send_after(self.env, reply_box, outcome, self.cost.peer_to_client.sample(self.rng))

    # -- commit pipeline ----------------------------------------------------------

    def _commit_loop(self) -> Generator:
        """Commit blocks strictly in order, buffering early arrivals.

        Random link latencies (or injected loss) can deliver blocks out of
        order or not at all; a real peer buffers ahead-of-tip blocks and
        fetches gaps through the deliver service.  ``request_catchup`` models
        that fetch; duplicates are ignored.
        """

        while True:
            block = yield self.block_box.get()
            height = self.peer.ledger.height
            if block.number < height:
                continue  # duplicate redelivery
            self._pending_blocks.setdefault(block.number, block)
            if self.telemetry is not None:
                self._recv_times.setdefault(block.number, self.env.now)
            if block.number > height and self.request_catchup is not None:
                missing_from = height
                missing_to = min(
                    number for number in self._pending_blocks if number > height
                )
                self.request_catchup(missing_from, missing_to)
            while self.peer.ledger.height in self._pending_blocks:
                number = self.peer.ledger.height
                ready = self._pending_blocks.pop(number)
                received = self._recv_times.pop(number, self.env.now)
                validate_start = self.env.now
                prepared = self.peer.prepare_block(ready)
                service = self.cost.commit_time(prepared.work)
                if service > 0:
                    yield self.env.timeout(service)
                self.peer.apply_prepared(prepared, commit_time=self.env.now)
                if self.telemetry is not None:
                    # Validate is the commit service window (work computed at
                    # its start, state visible at its end); apply is atomic at
                    # the window's end, hence zero-width in virtual time.
                    record_commit_phases(
                        self.telemetry, self.name, prepared,
                        received, validate_start, self.env.now, self.env.now,
                    )


class OrdererNode:
    """The ordering service's timed mailbox loop + batch-timeout timers.

    Cut blocks are archived so peers can catch up on missed deliveries
    (Fabric's deliver service re-serves any committed block).
    """

    def __init__(
        self,
        env: Environment,
        service: OrderingService,
        cost: CostModel,
        rng: random.Random,
    ) -> None:
        self.env = env
        self.service = service
        self.cost = cost
        self.rng = rng
        self.envelope_box: Store = Store(env)
        self._peer_nodes: list[PeerNode] = []
        self._timer_epoch = -1
        self.archive: dict[int, Any] = {}
        #: Telemetry context (set by the transport's ``enable_telemetry``).
        self.telemetry = None
        #: Arrival sim-time of sampled envelopes awaiting their block cut.
        self._arrivals: dict[str, float] = {}
        env.process(self._loop())

    def attach_peer(self, node: PeerNode) -> None:
        self._peer_nodes.append(node)

        def catchup(from_number: int, to_number: int) -> None:
            for number in range(from_number, to_number):
                block = self.archive.get(number)
                if block is not None:
                    send_after(
                        self.env,
                        node.block_box,
                        block,
                        self.cost.orderer_to_peer.sample(self.rng),
                    )

        node.request_catchup = catchup

    def close(self) -> None:
        """Detach every attached peer: each holds a catch-up closure over
        this node, and this node holds the peer — a cycle per peer."""

        for node in self._peer_nodes:
            node.request_catchup = None
        self._peer_nodes.clear()

    def _loop(self) -> Generator:
        while True:
            envelope = yield self.envelope_box.get()
            if self.telemetry is not None and self.telemetry.tracer.sampled(
                envelope.tx_id
            ):
                self._arrivals[envelope.tx_id] = self.env.now
            for block in self.service.submit(envelope, self.env.now):
                self._dispatch(block)
            self._ensure_timer()

    def _ensure_timer(self) -> None:
        if not self.service.has_pending:
            return
        epoch = self.service.batch_epoch
        if epoch == self._timer_epoch:
            return  # a timer for this batch is already pending
        self._timer_epoch = epoch
        deadline = self.service.timeout_deadline()
        assert deadline is not None
        self.env.process(self._timer(epoch, deadline))

    def _timer(self, epoch: int, deadline: float) -> Generator:
        delay = max(0.0, deadline - self.env.now)
        if delay > 0:
            yield self.env.timeout(delay)
        block = self.service.cut_on_timeout(self.env.now, epoch)
        if block is not None:
            self._dispatch(block)

    def _dispatch(self, block) -> None:
        self.archive[block.number] = block
        if self.telemetry is not None:
            # Order span: envelope arrival -> the cut that includes it.
            for tx in block.transactions:
                arrived = self._arrivals.pop(tx.tx_id, None)
                if arrived is not None:
                    record_phase(
                        self.telemetry, "order", tx.tx_id, arrived, self.env.now,
                        block=block.number, cut_reason=block.cut_reason,
                    )
        for node in self._peer_nodes:
            send_after(
                self.env, node.block_box, block, self.cost.orderer_to_peer.sample(self.rng)
            )
