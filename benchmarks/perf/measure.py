"""Measuring parts shared by every workload: clocks, /proc sampling, quiet deciles.

Nothing here imports ``repro``; it is plain arithmetic on what the
workloads recorded.  A *unit* is the smallest stretch of work the harness
timestamps as a whole — one wave (a block's worth of closed-loop
transactions) or, on the simulator workload, one pair of rounds.  The
window is cut into ``SEGMENTS`` equal-count groups of units and every
time-based metric is the value of the segment at the edge of the *best
tenth*: the shared host this runs on drops into a slower mode (−30 %) for
seconds at a time, which only ever makes a segment slower, so the best
tenth is what the program does when left alone — and it repeats, where the
median segment flips between the two modes from run to run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
CATALOG_PATH = REPO_ROOT / "BENCHMARK.json"
OUT_DIR = PERF_DIR / "out"

#: Equal-count groups the measured window is cut into (about half a second each).
SEGMENTS = 30

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def load_catalog() -> dict:
    """``BENCHMARK.json``: the one place metric and workload names live."""

    return json.loads(CATALOG_PATH.read_text())


# -- processes of the run ---------------------------------------------------------


def pin_to_one_cpu() -> None:
    """Keep this interpreter, and every process it spawns, on one CPU.

    The closed loop is a relay — client, peer, orderer, peers, client — with
    rarely more than one process runnable, so a second CPU buys the socket
    workload nothing (goodput within a few per cent) while every hand-over
    wakes a sleeping vCPU of a shared host.  Alternating 22 free and 22
    pinned runs of ``socket_crdt_hot``, minutes apart: quartile spread of
    ``goodput_tps`` 18 % free and 5.5 % pinned, ``cpu_ms_per_tx`` 2.18 ms and
    1.87 ms.
    """

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def node_pids() -> list[int]:
    """PIDs of the node processes this interpreter spawned (socket cluster)."""

    return [p.pid for p in multiprocessing.active_children() if p.pid is not None]


def _proc_cpu_seconds(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0  # the node exited; its time is already counted
    return (int(fields[11]) + int(fields[12])) / _TICKS_PER_S  # utime + stime


def cpu_seconds(pids: list[int]) -> float:
    """CPU time so far of this process plus the given node processes."""

    return time.process_time() + sum(_proc_cpu_seconds(pid) for pid in pids)


def node_cpu_seconds() -> dict[str, float]:
    """CPU time so far of each node process, by the name its spawner gave it."""

    return {
        process.name: _proc_cpu_seconds(process.pid)
        for process in multiprocessing.active_children()
        if process.pid is not None
    }


def _child_pids() -> list[int]:
    """PIDs of every live or unreaped process whose parent is this interpreter."""

    me, found = str(os.getpid()), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue  # gone between listdir and open
            if fields[1] == me:  # ppid
                found.append(int(entry))
    return found


def stop_child_processes() -> None:
    """Stop and reap everything this interpreter started; nothing outlives a run.

    Besides the node processes, the ``spawn`` start method launches a
    resource-tracker helper that otherwise exits only *after* its parent
    has — a process left behind, for a moment, by every socket run.
    """

    for process in multiprocessing.active_children():
        process.kill()
        process.join()
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()  # closes its pipe, waits for it
    except Exception:
        pass  # no such helper on this Python: the sweep below covers it
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:
            pass  # already reaped


def _peak_rss_kb(pid: "int | str") -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the peak resident sets of this process and its nodes."""

    return (_peak_rss_kb("self") + sum(_peak_rss_kb(pid) for pid in pids)) / 1024.0


# -- the measured window ----------------------------------------------------------


@dataclass
class Window:
    """Everything one measured window recorded — floats and small ints only."""

    #: Per unit: (wall seconds since the previous unit ended, attempted,
    #: valid, CPU seconds of all processes in that stretch).
    units: list[tuple[float, int, int, float]] = field(default_factory=list)
    #: Per unit of a traced run: were the tracer's wrappers switched on?
    traced: bytearray = field(default_factory=bytearray)
    #: Per measured transaction: submit_async start -> commit_status return.
    latencies_s: list[float] = field(default_factory=list)
    #: Per measured transaction, in submission order: committed VALID?
    valid: bytearray = field(default_factory=bytearray)
    #: Peak RSS, read when a fixed number of transactions had committed.
    rss_mb: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(unit[1] for unit in self.units)

    @property
    def succeeded(self) -> int:
        return sum(unit[2] for unit in self.units)

    @property
    def wall_s(self) -> float:
        return sum(unit[0] for unit in self.units)

    def only(self, traced: bool) -> "Window":
        """The units measured with the wrappers on (or off), as a window."""

        return Window(
            units=[unit for unit, flag in zip(self.units, self.traced) if flag == traced]
        )


class UnitClock:
    """Stamps consecutive units: wall and CPU since the previous one ended."""

    def __init__(self, pids: list[int]) -> None:
        self.pids = pids
        self.cpu = cpu_seconds(pids)
        self.wall = time.perf_counter()

    def lap(self, attempted: int, valid: int) -> tuple[float, int, int, float]:
        """The unit that just ended, in :attr:`Window.units` form."""

        wall, cpu = time.perf_counter(), cpu_seconds(self.pids)
        unit = (wall - self.wall, attempted, valid, cpu - self.cpu)
        self.wall, self.cpu = wall, cpu
        return unit


def segment_bounds(units: int) -> list[tuple[int, int]]:
    """``(first unit, one past the last)`` of at most ``SEGMENTS`` equal-count groups."""

    count = min(SEGMENTS, units)
    edges = [index * units // count for index in range(count + 1)]
    return list(zip(edges, edges[1:]))


def segments(window: Window) -> list[tuple[float, int, int, float]]:
    """Per segment ``(wall seconds, attempted, valid, cpu seconds)``."""

    return [
        tuple(map(sum, zip(*window.units[start:end])))
        for start, end in segment_bounds(len(window.units))
    ]


def quiet_decile(values: list[float], higher_is_better: bool) -> float:
    """The value a tenth of the way down ``values`` ranked best first."""

    ranked = sorted(values, reverse=higher_is_better)
    return ranked[len(ranked) // 10]


def goodput_tps(window: Window) -> float:
    return quiet_decile(
        [valid / wall for wall, _, valid, _ in segments(window)], higher_is_better=True
    )


def cpu_ms_per_tx(window: Window) -> float:
    return quiet_decile(
        [1000.0 * cpu / attempted for _, attempted, _, cpu in segments(window)],
        higher_is_better=False,
    )


def commit_latency_p50_ms(window: Window) -> float:
    """Median latency of each segment's transactions, then the quiet decile."""

    # Every unit times the same number of transactions, in submission order.
    per_unit = len(window.latencies_s) // len(window.units)
    medians = [
        1000.0 * statistics.median(window.latencies_s[start * per_unit : end * per_unit])
        for start, end in segment_bounds(len(window.units))
    ]
    return quiet_decile(medians, higher_is_better=False)


def percentile(sorted_values: list[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted list."""

    index = min(len(sorted_values) - 1, int(share * len(sorted_values)))
    return sorted_values[index]


def end_to_end(window: Window, setup_s: float) -> dict[str, float]:
    """The five end-to-end metrics, by their ``BENCHMARK.json`` names."""

    return {
        "setup_s": setup_s,
        "goodput_tps": goodput_tps(window),
        "commit_latency_p50_ms": commit_latency_p50_ms(window),
        "cpu_ms_per_tx": cpu_ms_per_tx(window),
        "peak_rss_mb": window.rss_mb,
    }


def quartile_spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as the driver computes them."""

    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0
