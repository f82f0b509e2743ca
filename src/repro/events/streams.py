"""Event streams: the consumer-facing objects of the event service.

A stream couples one :class:`~repro.events.deliver.DeliverSession` to one
consumer, in either of two styles:

* **callback** — ``stream.on_event(fn)`` delivers each event to ``fn`` the
  moment it arrives (at the commit instant on the DES transport).  Any
  buffered backlog is flushed to the callback on registration.
* **iterator** — ``for event in stream`` drains the buffered events and
  stops when the buffer is empty (a non-blocking drain; iterate again
  after driving the network to pick up newer events).

Buffering is bounded.  ``buffer_limit`` caps how many undelivered events a
stream holds; ``overflow`` picks what happens at the cap:

* ``"raise"`` (default) — the stream *fails*: it detaches from the peer,
  keeps its buffered events drainable, and raises
  :class:`StreamOverflowError` at the next consumer interaction.  The
  failure never propagates into the peer's commit path — a consumer that
  stopped draining must not break the committer or its co-subscribers;
* ``"drop_oldest"`` — evict the oldest buffered event (keep up with the
  head of the chain, count the loss in :attr:`EventStream.dropped`);
* ``"drop_newest"`` — refuse the new event instead (keep the contiguous
  prefix, count the loss).

Dropped events are *not* gone: the stream pins its checkpoint at the first
undelivered loss, so resuming from :meth:`EventStream.checkpoint` re-reads
every dropped event straight from the ledger (re-delivering, at worst,
events this stream already handed out after the loss — at-least-once
across overflow, exactly-once otherwise).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Iterator, Optional

from ..common.errors import FabricError
from ..fabric.block import CommittedBlock
from ..fabric.peer import Peer
from .checkpoint import Checkpoint
from .deliver import DeliverSession
from .filters import EventFilter, contract_events_in_block
from .scheduling import DeliverySchedule
from .types import BlockEvent, ContractEvent

#: Default cap on undelivered buffered events per stream.
DEFAULT_BUFFER_LIMIT = 65536

#: Accepted ``overflow`` policies.
OVERFLOW_POLICIES = ("raise", "drop_oldest", "drop_newest")


class StreamOverflowError(FabricError):
    """A stream's bounded buffer filled under the ``"raise"`` policy."""


class StreamClosedError(FabricError):
    """An operation on a closed stream that requires it open."""


class EventStream:
    """Common machinery of block and contract-event streams."""

    def __init__(
        self,
        peer: Peer,
        start: Checkpoint,
        schedule: Optional[DeliverySchedule] = None,
        buffer_limit: int = DEFAULT_BUFFER_LIMIT,
        overflow: str = "raise",
    ) -> None:
        if buffer_limit < 1:
            raise ValueError(f"buffer_limit must be positive: {buffer_limit}")
        if overflow not in OVERFLOW_POLICIES:
            raise ValueError(
                f"unknown overflow policy {overflow!r}; pick one of {OVERFLOW_POLICIES}"
            )
        self._start = start
        self._buffer: Deque = deque()
        self._buffer_limit = buffer_limit
        self._overflow = overflow
        self._listeners: list[Callable] = []
        #: Events lost to buffer overflow under a ``drop_*`` policy.
        self.dropped = 0
        #: Resume position: just past the last *delivered* event.
        self._checkpoint = start
        #: Position of the first overflow-dropped event, if any: the
        #: checkpoint never advances past it, so resume recovers the loss.
        self._gap: Optional[Checkpoint] = None
        #: Set under the ``"raise"`` policy; surfaced on consumer calls.
        self._failure: Optional[StreamOverflowError] = None
        # Assign before start(): replay delivers synchronously under the
        # inline schedule, and _expand needs the session for the peer name.
        self._session = DeliverSession(
            peer, self._on_block, start_block=start.block_number, schedule=schedule
        )
        self._session.start()

    # -- template methods ---------------------------------------------------------

    def _expand(self, committed: CommittedBlock) -> Iterator:
        """Map one committed block to this stream's events."""

        raise NotImplementedError

    def _position_after(self, event) -> Checkpoint:
        """The checkpoint value after ``event`` has been delivered."""

        raise NotImplementedError

    def _position_of(self, event) -> Checkpoint:
        """The checkpoint position ``event`` itself occupies."""

        raise NotImplementedError

    # -- ingest -------------------------------------------------------------------

    def _on_block(self, committed: CommittedBlock) -> None:
        for event in self._expand(committed):
            self._ingest(event)

    def _ingest(self, event) -> None:
        if self._listeners:
            for listener in list(self._listeners):
                listener(event)
            # Advance only after every listener accepted the event: if a
            # consumer raised and later resumes from checkpoint(), it must
            # see this event again (at-least-once on failure).
            self._checkpoint = self._position_after(event)
            return
        if len(self._buffer) >= self._buffer_limit:
            if self._overflow == "raise":
                # Fail the *stream*, never the publisher: detach from the
                # peer (co-subscribers and the commit path are unaffected)
                # and surface the error at the next consumer interaction.
                self._failure = StreamOverflowError(
                    f"stream buffer full ({self._buffer_limit} events); "
                    "the stream is closed — drain faster, raise the limit, "
                    "or resume from checkpoint() with a fresh stream"
                )
                self.close()
                return
            self.dropped += 1
            dropped = event if self._overflow == "drop_newest" else self._buffer.popleft()
            if self._gap is None:
                self._gap = self._position_of(dropped)
            if self._overflow == "drop_newest":
                return
        self._buffer.append(event)

    # -- consumption --------------------------------------------------------------

    def on_event(self, listener: Callable) -> "EventStream":
        """Register a callback; buffered backlog is flushed to it first."""

        if self._failure is not None:
            raise self._failure
        if self.closed:
            raise StreamClosedError("cannot attach a listener to a closed stream")
        while self._buffer:
            event = self._buffer[0]
            listener(event)
            # Pop and advance only after the listener accepted the event.
            self._buffer.popleft()
            self._checkpoint = self._position_after(event)
        self._listeners.append(listener)
        return self

    def __iter__(self):
        return self

    def __next__(self):
        if self._buffer:
            event = self._buffer.popleft()
            self._checkpoint = self._position_after(event)
            return event
        if self._failure is not None:
            # Buffered events drain first; then the overflow surfaces.
            raise self._failure
        raise StopIteration

    # -- state --------------------------------------------------------------------

    def checkpoint(self) -> Checkpoint:
        """Cursor just past the last delivered event — resume here later.

        Pinned at the first overflow-dropped event, if any: a resumed
        stream re-reads the loss from the ledger rather than skipping it.
        """

        if self._gap is not None and self._gap < self._checkpoint:
            return self._gap
        return self._checkpoint

    @property
    def pending(self) -> int:
        """Buffered events awaiting delivery."""

        return len(self._buffer)

    @property
    def closed(self) -> bool:
        return self._session.closed

    @property
    def peer_name(self) -> str:
        return self._session.peer_name

    def close(self) -> None:
        """Stop deliveries.  Buffered events remain drainable by iteration."""

        self._session.close()

    def __enter__(self) -> "EventStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (
            f"{type(self).__name__}({state}, peer={self.peer_name!r}, "
            f"checkpoint={self._checkpoint}, pending={self.pending})"
        )


class BlockEventStream(EventStream):
    """Streams every committed block of one peer as :class:`BlockEvent`."""

    def _expand(self, committed: CommittedBlock) -> Iterator[BlockEvent]:
        yield BlockEvent(committed=committed, peer_name=self._session.peer_name)

    def _position_after(self, event: BlockEvent) -> Checkpoint:
        return Checkpoint(event.block_number).advanced_past_block()

    def _position_of(self, event: BlockEvent) -> Checkpoint:
        return Checkpoint(event.block_number)


class ContractEventStream(EventStream):
    """Streams matching chaincode events as :class:`ContractEvent`.

    The filter decides chaincode, event name, and validity; the start
    checkpoint's ``tx_index`` skips already-delivered events of a partially
    consumed first block.  Note the checkpoint advances only on delivered
    events — blocks with no matching events are rescanned (cheaply, and
    with no duplicate deliveries) on resume.
    """

    def __init__(
        self,
        peer: Peer,
        start: Checkpoint,
        event_filter: EventFilter,
        schedule: Optional[DeliverySchedule] = None,
        buffer_limit: int = DEFAULT_BUFFER_LIMIT,
        overflow: str = "raise",
    ) -> None:
        self.event_filter = event_filter
        super().__init__(peer, start, schedule, buffer_limit, overflow)

    def _expand(self, committed: CommittedBlock) -> Iterator[ContractEvent]:
        start_tx = (
            self._start.tx_index
            if committed.block.number == self._start.block_number
            else 0
        )
        return contract_events_in_block(
            committed, self._session.peer_name, self.event_filter, start_tx=start_tx
        )

    def _position_after(self, event: ContractEvent) -> Checkpoint:
        return Checkpoint(event.block_number, event.tx_index).advanced_past_tx()

    def _position_of(self, event: ContractEvent) -> Checkpoint:
        return Checkpoint(event.block_number, event.tx_index)
