"""Client strategies: how a benchmark round's transactions reach the Gateway.

Two strategies, mirroring the two classes of benchmark clients in the
literature (Caliper's open-loop drivers; BlockBench's closed-loop ones):

* :class:`OpenLoopClient` — fire-and-forget at the planned submission
  instants, one simulation process per submitting client, each transaction
  through ``Contract.submit_async``.  This is the paper's §7.2 client and
  byte-identical to the seed driver's behaviour.
* :class:`ClosedLoopClient` — event-driven: keeps up to ``in_flight``
  transactions outstanding and refills in coalesced
  ``Contract.submit_batch`` bursts whenever Gateway commit events resolve
  earlier ones.  No polling — the client *reacts* to
  ``gateway.block_events()`` deliveries at commit instants, closing the
  ROADMAP loop on event-driven workload clients.

Strategies are stateless between rounds: :meth:`ClientStrategy.start` wires
one round and returns a per-round handle used to tear streams down after
the run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Optional

from ..common.errors import WorkloadError
from .generator import PlannedTx
from .metrics import MetricsCollector
from .rate import MaxRate, RateController

if TYPE_CHECKING:  # pragma: no cover
    from ..gateway import Contract, Gateway
    from ..sim.engine import Environment


@dataclass
class RoundContext:
    """Everything a client strategy needs to drive one round."""

    env: "Environment"
    gateway: "Gateway"
    contract: "Contract"
    plan: list[PlannedTx]
    collector: MetricsCollector
    rate: RateController


class ClientStrategy:
    """How transactions are pushed into (or pulled by) the network."""

    def start(self, ctx: RoundContext) -> None:
        """Wire this strategy into one round (before ``env.run``)."""

        raise NotImplementedError

    def finish(self) -> None:
        """Tear down per-round resources (event streams) after the run."""


class OpenLoopClient(ClientStrategy):
    """Fire-and-forget submission at the planned instants (§7.2).

    The plan is partitioned by ``PlannedTx.client`` and each client runs as
    its own simulation process, submitting through ``submit_async`` exactly
    at the planned times — commit outcomes are observed by the metrics
    collector, never awaited by the submitter.
    """

    def start(self, ctx: RoundContext) -> None:
        per_client: dict[int, list[PlannedTx]] = {}
        for tx in ctx.plan:
            per_client.setdefault(tx.client, []).append(tx)
        for client_index, transactions in sorted(per_client.items()):
            ctx.env.process(
                self._client_process(ctx, client_index, transactions)
            )

    @staticmethod
    def _client_process(
        ctx: RoundContext, client_index: int, transactions: list[PlannedTx]
    ) -> Generator:
        for tx in transactions:
            delay = tx.submit_time - ctx.env.now
            if delay > 0:
                yield ctx.env.timeout(delay)
            ctx.contract.submit_async(
                tx.function,
                tx.call_argument(),
                client_index=client_index,
                on_endorsement_failure=ctx.collector.on_endorsement_failure,
            )


@dataclass
class _Window:
    """Mutable in-flight accounting of one closed-loop round."""

    outstanding: set = field(default_factory=set)
    max_outstanding: int = 0
    batches_submitted: int = 0
    #: Reentrancy guard: inline-delivery transports run commit events (and
    #: thus nested refill attempts) inside ``submit_batch`` itself.
    refilling: bool = False

    def note(self) -> None:
        self.max_outstanding = max(self.max_outstanding, len(self.outstanding))


class _Refill:
    """One closed-loop round's reactions: refill the window, retire on commit.

    Methods rather than nested closures: a refill passes the failure hook,
    and the hook refills — as closures the two would hold each other, and
    with them the round's whole network, past the round.
    """

    def __init__(
        self, ctx: RoundContext, window: _Window, in_flight: int, batch_size: int
    ) -> None:
        self.ctx = ctx
        self.window = window
        self.in_flight = in_flight
        self.batch_size = batch_size
        self.queue = deque(ctx.plan)
        self.num_clients = max((tx.client for tx in ctx.plan), default=0) + 1

    def on_endorsement_failure(self, tx_id: str, now: float) -> None:
        self.ctx.collector.on_endorsement_failure(tx_id, now)
        self.window.outstanding.discard(tx_id)
        self.refill()

    def refill(self) -> None:
        # On an inline-delivery transport (SyncTransport) a submit_batch
        # call can cut a block, commit it, and deliver its events before
        # returning — firing on_block (and this refill) reentrantly.
        # The guard collapses nested calls into the outer loop, and the
        # ``not tx.done`` filter keeps transactions that already resolved
        # during the call from being tracked as in-flight ghosts that
        # would pin window slots forever.
        window, queue = self.window, self.queue
        if window.refilling:
            return
        window.refilling = True
        try:
            while queue and len(window.outstanding) < self.in_flight:
                room = min(
                    self.batch_size, self.in_flight - len(window.outstanding), len(queue)
                )
                batch = [queue.popleft() for _ in range(room)]
                client_index = window.batches_submitted % self.num_clients
                window.batches_submitted += 1
                submitted = self.ctx.contract.submit_batch(
                    batch[0].function,
                    [(tx.call_argument(),) for tx in batch],
                    client_index=client_index,
                    on_endorsement_failure=self.on_endorsement_failure,
                )
                window.outstanding.update(
                    tx.tx_id for tx in submitted if not tx.done
                )
                window.note()
        finally:
            window.refilling = False

    def on_block(self, event) -> None:
        resolved = {
            tx.tx_id for tx in event.committed.block.transactions
        } & self.window.outstanding
        if not resolved:
            return
        self.window.outstanding -= resolved
        self.refill()


class ClosedLoopClient(ClientStrategy):
    """Event-driven closed loop: submit-on-commit up to an in-flight cap.

    Submission order follows the plan; planned submit times are ignored.
    The initial window fills at time zero, then every
    ``gateway.block_events()`` delivery (arriving at commit instants on the
    DES transport) retires resolved transactions and refills the window
    with ``Contract.submit_batch`` bursts of at most ``batch_size``.
    Endorsement failures retire their transaction through the same
    accounting, so a lossy round cannot wedge the loop.

    ``in_flight`` / ``batch_size`` default to the round's :class:`MaxRate`
    controller settings.
    """

    def __init__(
        self,
        in_flight: Optional[int] = None,
        batch_size: Optional[int] = None,
    ) -> None:
        self.in_flight = in_flight
        self.batch_size = batch_size
        self.window = _Window()
        self._stream = None

    @property
    def max_in_flight_observed(self) -> int:
        """High-water mark of concurrently outstanding transactions."""

        return self.window.max_outstanding

    def _resolve_caps(self, rate: RateController) -> tuple[int, int]:
        in_flight = self.in_flight
        batch_size = self.batch_size
        if isinstance(rate, MaxRate):
            in_flight = in_flight if in_flight is not None else rate.in_flight
            batch_size = batch_size if batch_size is not None else rate.batch_size
        in_flight = in_flight if in_flight is not None else 64
        batch_size = batch_size if batch_size is not None else min(8, in_flight)
        if batch_size > in_flight:
            raise WorkloadError(
                f"batch size {batch_size} cannot exceed the in-flight cap {in_flight}"
            )
        return in_flight, batch_size

    def start(self, ctx: RoundContext) -> None:
        in_flight, batch_size = self._resolve_caps(ctx.rate)
        self.window = _Window()
        loop = _Refill(ctx, self.window, in_flight, batch_size)
        self._stream = ctx.gateway.block_events()
        self._stream.on_event(loop.on_block)
        loop.refill()

    def finish(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None
