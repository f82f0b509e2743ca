"""The traced run's instruments: spans from the outside, replays by name.

The program is not edited to be measured.  Per-layer numbers come from

* **wrappers** the harness places on *instances'* public methods
  (``peer.endorse``, ``store.apply_batch``, ...) for the traced window —
  each call becomes a span (id, parent, name, start, end, wave), and a
  layer's *self time* is its spans' duration minus the part their child
  spans cover;
* **leaf timers** for calls too small and too many to keep a span each
  (state-store point reads): count and total time only, still charged to
  the enclosing span as child time;
* **replays** of module-level public functions on inputs captured during
  the run (blocks, envelopes, values), timed in isolation afterwards.

Every target is resolved *by name when the probe starts*.  A name that is
gone (a refactor the harness cannot follow) yields ``None`` plus a reason
in :attr:`Tracer.missing` — never an exception, so the end-to-end numbers
keep flowing while the probe list is repaired.
"""

from __future__ import annotations

import gc
import importlib
import json
import statistics
from time import perf_counter
from typing import Any, Callable, Optional


class Tracer:
    """In-memory span recorder; written out once, when the run ends."""

    def __init__(self) -> None:
        #: (span id, parent id, name, start, end, wave) — 0 = no parent.
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        #: name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list[float]] = {}
        #: Plain counters bumped by wrapper observers.
        self.counts: dict[str, float] = {}
        #: probe or wrapper name -> why it produced nothing.
        self.missing: dict[str, str] = {}
        #: The wave the harness is in; stamped on every span.
        self.wave = -1
        #: Wrappers pass straight through while this is off.  The traced run
        #: switches it every few waves, so traced and untraced stretches
        #: alternate on the same network, seconds apart: their ratio is the
        #: tracing overhead, free of set-up differences and slow minutes.
        self.enabled = True
        self._stack: list[list[float]] = []
        self._ids = 0
        self._in_leaf = False
        self._undo: list[tuple[Any, str]] = []
        self._gc_started = 0.0
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0

    # -- spans ------------------------------------------------------------------

    def begin(self, name: str) -> tuple[int, str, float]:
        """Open a span by hand (the harness's own wave / wait spans)."""

        self._ids += 1
        self._stack.append([self._ids, 0.0])
        self.stats.setdefault(name, [0, 0.0, 0.0])
        return self._ids, name, perf_counter()

    def end(self, handle: tuple[int, str, float]) -> float:
        ended = perf_counter()
        span_id, name, started = handle
        frame = self._stack.pop()
        duration = ended - started
        parent = 0
        if self._stack:
            self._stack[-1][1] += duration
            parent = int(self._stack[-1][0])
        entry = self.stats[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]
        self.spans.append((span_id, parent, name, started, ended, self.wave))
        return duration

    def _install(self, obj: Any, attr: str, name: str, make: Callable) -> bool:
        target = getattr(obj, attr, None)
        if not callable(target):
            self.missing[name] = f"{type(obj).__name__}.{attr} is gone"
            return False
        try:
            setattr(obj, attr, make(target))
        except (AttributeError, TypeError) as exc:
            self.missing[name] = f"cannot wrap {type(obj).__name__}.{attr}: {exc}"
            return False
        self._undo.append((obj, attr))
        self.stats.setdefault(name, [0, 0.0, 0.0])
        return True

    def wrap(
        self,
        obj: Any,
        attr: str,
        name: str,
        observe: Optional[Callable[[tuple, Any], None]] = None,
    ) -> bool:
        """Record a span around every call of ``obj.attr`` (instance-level)."""

        def make(target: Callable) -> Callable:
            def traced(*args, **kwargs):
                if not self.enabled:
                    return target(*args, **kwargs)
                handle = self.begin(name)
                try:
                    result = target(*args, **kwargs)
                finally:
                    self.end(handle)
                if observe is not None:
                    observe(args, result)
                return result

            return traced

        return self._install(obj, attr, name, make)

    def wrap_leaf(self, obj: Any, attr: str, name: str) -> bool:
        """Count and time ``obj.attr`` without keeping a span per call."""

        def make(target: Callable) -> Callable:
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            stack = self._stack

            def timed(*args, **kwargs):
                if self._in_leaf or not self.enabled:
                    # (get_value() built on get(): one read, counted once.)
                    return target(*args, **kwargs)
                self._in_leaf = True
                started = perf_counter()
                try:
                    return target(*args, **kwargs)
                finally:
                    duration = perf_counter() - started
                    self._in_leaf = False
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration
                    if stack:
                        stack[-1][1] += duration

            return timed

        return self._install(obj, attr, name, make)

    def unwrap_all(self) -> None:
        for obj, attr in reversed(self._undo):
            try:
                delattr(obj, attr)
            except AttributeError:
                pass
        self._undo.clear()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    # -- reading the books ------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def books(self) -> dict:
        """A copy of every call count and counter (for exact-range deltas)."""

        return {
            "calls": {name: entry[0] for name, entry in self.stats.items()},
            "counts": dict(self.counts),
        }

    # -- garbage collector ---------------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.enabled:
            return
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.gc_pause_s += perf_counter() - self._gc_started
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- output -----------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for span_id, parent, name, started, ended, wave in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": started,
                            "end": ended,
                            "wave": wave,
                        }
                    )
                )
                handle.write("\n")


# -- resolving and timing replay targets ----------------------------------------------


def resolve(tracer: Tracer, probe: str, path: str) -> Optional[Any]:
    """``"package.module:Name.attr"`` -> the object, or ``None`` + a reason."""

    module_name, _, attr_path = path.partition(":")
    try:
        target: Any = importlib.import_module(module_name)
        for part in attr_path.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError) as exc:
        tracer.missing[probe] = f"{path} is gone: {exc}"
        return None
    return target


#: Times each replay is repeated; the median repetition is reported.
REPLAY_REPEATS = 5


def median_seconds(fn: Callable[[], Any], repeats: int = REPLAY_REPEATS) -> float:
    """Median wall time of ``fn()`` over ``repeats`` runs."""

    samples = []
    for _ in range(repeats):
        started = perf_counter()
        fn()
        samples.append(perf_counter() - started)
    return statistics.median(samples)


def guarded(tracer: Tracer, probe: str, fn: Callable[[], Optional[float]]) -> Optional[float]:
    """Run one probe; a failure becomes ``None`` + reason, never an exception.

    This is the boundary that must keep running: a probe poking at internals
    a later change reshaped may fail in any way, and the traced run still
    has to report every other layer.
    """

    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - see docstring
        tracer.missing[probe] = f"probe failed: {type(exc).__name__}: {exc}"
        return None
