"""Generator-based simulation processes.

A process wraps a generator that yields :class:`~repro.sim.events.Event`
objects.  Yielding suspends the process until the event fires; the event's
value becomes the value of the ``yield`` expression.  A process is itself an
event that fires when the generator returns, so processes can wait on each
other (fork/join) simply by yielding the child process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from ..common.errors import ProcessKilled
from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment


class Interrupt(ProcessKilled):
    """Raised inside a process when another process interrupts it."""


class Process(Event):
    """A running simulation process (also an event: fires on completion)."""

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any]) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process needs a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        #: The event this process is currently waiting on (None if running).
        self._target: Optional[Event] = None
        env._unfinished.add(self)
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event the process is suspended on (introspection/debugging)."""

        return self._target

    # -- execution ------------------------------------------------------------

    def _resume(self, event: Event) -> None:
        self._target = None
        while True:
            try:
                if event._okay is False:
                    event.defused = True
                    next_event = self._generator.throw(event.value)
                else:
                    value = event.value if event.triggered else None
                    next_event = self._generator.send(value)
            except StopIteration as stop:
                self._finish(True, stop.value)
                return
            except BaseException as exc:
                self._finish(False, exc)
                return

            if not isinstance(next_event, Event):
                error = TypeError(
                    f"process yielded a non-event: {next_event!r}"
                )
                try:
                    self._generator.throw(error)
                except StopIteration as stop:
                    self._finish(True, stop.value)
                except BaseException as exc:
                    self._finish(False, exc)
                return

            if next_event.processed:
                # The event already fired in the past; resume immediately with
                # its recorded outcome.
                event = next_event
                continue
            next_event.callbacks.append(self._resume)
            self._target = next_event
            return

    def _finish(self, ok: bool, value: Any) -> None:
        """The generator returned (``ok``) or raised: fire this process."""

        self.env._unfinished.discard(self)
        if ok:
            self.succeed(value)
        else:
            self.fail(value)

    def close(self) -> None:
        """Stop a process that has not finished, without firing it.

        It stops waiting on its target and its generator is closed (its
        ``finally`` blocks run), which drops the frame and everything the
        frame held.  Processes waiting on this one are not resumed.  A
        finished process is left as it is.
        """

        if self.triggered:
            return
        self.env._unfinished.discard(self)
        self._detach()
        self._generator.close()

    def _detach(self) -> None:
        """Stop waiting on the current target (its callback list lets go)."""

        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None

    # -- interruption ------------------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a no-op, matching SimPy semantics.
        The process may catch the interrupt and keep running.
        """

        if self.triggered:
            return
        self._detach()
        poison = Event(self.env)
        poison.callbacks.append(self._resume)
        poison.defused = True
        poison._okay = False
        poison._value = Interrupt(cause)
        self.env.schedule(poison)

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", type(self._generator).__name__)
        state = "done" if self.triggered else ("waiting" if self._target else "ready")
        return f"<Process {name} {state} at {id(self):#x}>"
