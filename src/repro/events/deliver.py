"""The per-peer deliver service: replay from the ledger, then go live.

Fabric peers expose a *deliver service*: a client asks for blocks from any
past height and the peer streams the historical ones from its ledger, then
keeps the stream open and sends each newly committed block as it lands
(Androulaki et al., 2018, §4.5).  :class:`DeliverService` is that component
for in-process peers.  It is the **only** place allowed to touch
``EventHub`` directly — every external consumer goes through a stream
obtained from the Gateway.

A :class:`DeliverSession` holds a monotonic cursor (the next block number
it owes its consumer).  The replay phase reads committed blocks straight
from the :class:`~repro.fabric.ledger.Ledger`; the live phase rides the
peer's :class:`~repro.fabric.events.EventHub`.  The boundary is seam-free:
the hub subscription is installed *before* replay starts, live publishes
arriving mid-replay are ignored (the replay loop re-checks the ledger
height and picks those blocks up itself — the hub publishes only after the
ledger append), and once live, any gap or duplicate is resolved against the
cursor by re-reading the ledger.  The consumer therefore sees every block
from ``start_block`` exactly once, in order.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..common.errors import FabricError
from ..fabric.block import CommittedBlock
from ..fabric.peer import Peer
from .scheduling import DeliverySchedule, InlineSchedule

#: A deliver consumer receives committed blocks, in order, exactly once.
BlockConsumer = Callable[[CommittedBlock], None]


class DeliverError(FabricError):
    """A deliver request the peer cannot serve."""


class DeliverSession:
    """One open deliver stream from one peer to one consumer."""

    def __init__(
        self,
        peer: Peer,
        consumer: BlockConsumer,
        start_block: int = 0,
        schedule: Optional[DeliverySchedule] = None,
    ) -> None:
        if start_block < 0:
            raise DeliverError(f"deliver start_block must be non-negative: {start_block}")
        #: The serving peer; ``None`` once closed (``peer_name`` stays).
        self.peer: Optional[Peer] = peer
        self.peer_name = peer.name
        self._consumer: Optional[BlockConsumer] = consumer
        self._schedule = schedule if schedule is not None else InlineSchedule()
        #: Next block number owed to the consumer.
        self._next = start_block
        self._replaying = False
        self._closed = False
        self._unsubscribe: Optional[Callable[[], None]] = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "DeliverSession":
        """Subscribe live, then replay history up to the current height.

        Replay is always synchronous — historical blocks stream out during
        this call, like a real deliver service serving a seek request; the
        configured schedule only governs *live* deliveries (at commit
        instants on the DES clock).
        """

        self._unsubscribe = self.peer.events.subscribe(self._on_live)
        self._replaying = True
        try:
            self._catch_up(InlineSchedule())
        finally:
            self._replaying = False
        return self

    def close(self) -> None:
        """Detach from the hub and let go of the peer and the consumer; no
        further deliveries occur.

        The consumer is usually a bound method of whatever opened the
        session (a channel, a stream), which holds the session in turn, and
        the peer holds its whole ledger: a closed session keeps neither, so
        no cycle through it can keep a ledger alive.
        """

        self._closed = True
        self._consumer = None
        self.peer = None
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def next_block(self) -> int:
        """The next block number this session will deliver."""

        return self._next

    # -- delivery ----------------------------------------------------------------

    def _catch_up(self, schedule: DeliverySchedule) -> None:
        """Deliver every committed block the cursor hasn't covered yet.

        Re-checks the ledger height each iteration: a consumer callback may
        itself trigger commits (synchronous transport), and those blocks
        belong to this pass, not to the live phase.
        """

        while not self._closed and self._next < self.peer.ledger.height:
            block = self.peer.ledger.block_at(self._next)
            self._next += 1
            self._dispatch(block, schedule)

    def _on_live(self, committed: CommittedBlock, peer_name: str) -> None:
        if self._closed or self._replaying:
            # Mid-replay publishes are ledger-visible already; the replay
            # loop delivers them in order.
            return
        if committed.block.number < self._next:
            return  # duplicate redelivery
        # The hub publishes in commit order right after the ledger append,
        # so this block (and any gap before it) is readable from the ledger.
        self._catch_up(self._schedule)

    def _dispatch(self, committed: CommittedBlock, schedule: DeliverySchedule) -> None:
        def deliver() -> None:
            consumer = self._consumer
            if consumer is not None:  # None once closed
                consumer(committed)

        schedule.dispatch(deliver)


class DeliverService:
    """Factory for deliver sessions on one peer."""

    def __init__(self, peer: Peer) -> None:
        self.peer = peer

    def deliver(
        self,
        consumer: BlockConsumer,
        start_block: int = 0,
        schedule: Optional[DeliverySchedule] = None,
    ) -> DeliverSession:
        """Open a session streaming blocks from ``start_block`` onwards."""

        return DeliverSession(self.peer, consumer, start_block, schedule).start()
