"""The discrete-event simulation engine.

:class:`Environment` keeps virtual time and an event heap.  Simultaneous
events are processed in FIFO scheduling order (a monotonically increasing
sequence number breaks ties), which makes every simulation fully
deterministic for a given seed.

The kernel is intentionally SimPy-shaped — ``env.process(gen)``,
``yield env.timeout(d)``, stores and resources — so that readers familiar
with SimPy can follow the Fabric network processes immediately, but it is
implemented from scratch and carries only what this project needs.
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, Iterable, Optional

from ..common.errors import SimulationError, StopSimulation
from .events import AllOf, AnyOf, Event, Timeout
from .process import Process


class Environment:
    """Execution environment: virtual clock plus the scheduled-event heap."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        #: Total events processed — cheap progress metric for long runs.
        self.events_processed = 0
        #: Processes started and not yet finished (what :meth:`close` stops).
        self._unfinished: set[Process] = set()

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""

        return self._now

    # -- scheduling ------------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Enqueue a triggered event for processing after ``delay``."""

        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""

        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event (advance the clock to it)."""

        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        when, _, event = heapq.heappop(self._heap)
        self._now = when
        callbacks = event.callbacks
        event.callbacks = None  # mark processed
        self.events_processed += 1
        assert callbacks is not None
        for callback in callbacks:
            callback(event)
        if not event.ok and not event.defused:
            # A failure nobody handled: crash the run loudly rather than
            # silently dropping an exception.
            raise event.value

    # -- run loop ----------------------------------------------------------------

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        * ``until`` is ``None`` — run until no events remain.
        * ``until`` is a number — run until virtual time reaches it.
        * ``until`` is an :class:`Event` — run until that event is processed
          and return its value (raising if it failed).
        """

        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"until={stop_time} is in the past (now={self._now})"
                )

        try:
            while self._heap:
                if stop_event is not None and stop_event.processed:
                    break
                if self.peek() > stop_time:
                    self._now = stop_time
                    break
                self.step()
        except StopSimulation as stop:
            return stop.reason

        if stop_event is not None:
            if not stop_event.processed:
                raise SimulationError("run() ran out of events before `until` fired")
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        if stop_time != float("inf") and self._now < stop_time:
            self._now = stop_time
        return None

    # -- factories ---------------------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""

        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""

        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Spawn a process from a generator that yields events."""

        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def stop(self, reason: Any = None) -> None:
        """Stop the run loop from inside a process callback."""

        raise StopSimulation(reason)

    def close(self) -> None:
        """End this simulation for good: close every unfinished process and
        drop every scheduled event.

        A process suspended on an event and that event refer to each other
        (the event's callbacks hold the process), and the suspended frame
        holds whatever the process was serving — so without this a finished
        run's whole network stays alive as cyclic garbage until a full
        collection.  Call it from outside the run loop, once nothing will
        step this environment again.  Idempotent.
        """

        while self._unfinished:
            self._unfinished.pop().close()  # may schedule (finally blocks)
        self._heap.clear()

    def __repr__(self) -> str:
        return f"Environment(now={self._now}, pending={len(self._heap)})"
