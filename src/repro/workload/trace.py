"""Per-transaction trace analysis and export.

The paper reports three aggregate metrics per experiment; for *analysis* of
a run (EXPERIMENTS.md appendices, debugging queueing behaviour) one usually
wants the raw per-transaction records and distribution views.  This module
turns a :class:`~repro.workload.metrics.MetricsCollector`'s statuses into
trace rows, latency percentiles, a committed-throughput timeline, and CSV
export.  Standard library only: this module loads with every workload, the
harness and the socket peer processes.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..common.types import TxStatus, ValidationCode

TRACE_FIELDS = (
    "tx_id",
    "code",
    "succeeded",
    "block_num",
    "tx_num",
    "submit_time",
    "commit_time",
    "latency",
)


def trace_rows(statuses: Iterable[TxStatus]) -> list[dict]:
    """One dict per transaction, in submit-time order."""

    rows = []
    for status in statuses:
        rows.append(
            {
                "tx_id": status.tx_id,
                "code": status.code.name,
                "succeeded": status.succeeded,
                "block_num": status.block_num,
                "tx_num": status.tx_num,
                "submit_time": status.submit_time,
                "commit_time": status.commit_time,
                "latency": status.latency,
            }
        )
    rows.sort(key=lambda row: (row["submit_time"] is None, row["submit_time"]))
    return rows


def latency_percentiles(
    statuses: Iterable[TxStatus],
    quantiles: Sequence[float] = (50, 90, 95, 99),
    successful_only: bool = True,
) -> dict[float, float]:
    """Latency percentiles (in seconds) over the run."""

    latencies = [
        status.latency
        for status in statuses
        if status.latency is not None and (status.succeeded or not successful_only)
    ]
    if not latencies:
        return {q: float("nan") for q in quantiles}
    latencies.sort()
    return {q: percentile(latencies, q) for q in quantiles}


def percentile(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of sorted values, linearly interpolated.

    Bit for bit what ``numpy.percentile`` (its default ``"linear"`` method)
    returns, by the same arithmetic in the same order: the virtual index
    ``(n - 1) * (q / 100)``, and numpy's two-sided lerp — ``a + (b - a) * t``
    below ``t = 0.5``, ``b - (b - a) * (1 - t)`` from it, which is exact at
    both ends.
    """

    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q!r}")
    last = len(ordered) - 1
    virtual = last * (q / 100)
    # numpy marks an index at or past the end as -1, and its weight is taken
    # against that marker (virtual + 1): the same last value, by the same sum.
    below = -1 if virtual >= last else math.floor(virtual)
    a = ordered[below]
    b = ordered[-1 if below == -1 else below + 1]
    t = virtual - below
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def throughput_timeline(
    statuses: Iterable[TxStatus], window_s: float = 1.0, successful_only: bool = True
) -> list[tuple[float, float]]:
    """``(window_start, committed_per_second)`` samples over the run.

    Useful for seeing queue build-up: under overload the commit rate stays
    flat at capacity while submissions race ahead.
    """

    if window_s <= 0:
        raise ValueError("window must be positive")
    times = sorted(
        status.commit_time
        for status in statuses
        if status.commit_time is not None and (status.succeeded or not successful_only)
    )
    if not times:
        return []
    buckets: dict[int, int] = {}
    for time in times:
        buckets[int(time // window_s)] = buckets.get(int(time // window_s), 0) + 1
    return [
        (index * window_s, count / window_s) for index, count in sorted(buckets.items())
    ]


def queue_depth_estimate(
    statuses: Iterable[TxStatus], window_s: float = 1.0
) -> list[tuple[float, int]]:
    """Submitted-but-not-yet-committed transaction count over time."""

    events: list[tuple[float, int]] = []
    for status in statuses:
        if status.submit_time is not None:
            events.append((status.submit_time, +1))
        if status.commit_time is not None:
            events.append((status.commit_time, -1))
    if not events:
        return []
    events.sort()
    samples = []
    depth = 0
    next_sample = events[0][0]
    for time, delta in events:
        while time >= next_sample:
            samples.append((next_sample, depth))
            next_sample += window_s
        depth += delta
    samples.append((next_sample, depth))
    return samples


def export_csv(path: "str | Path", statuses: Iterable[TxStatus]) -> int:
    """Write the trace to ``path``; returns the number of rows written.

    Parent directories are created, so artifact paths like
    ``out/traces/run1.csv`` work without setup.
    """

    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    rows = trace_rows(statuses)
    with open(target, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=TRACE_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return len(rows)


def import_csv(path: "str | Path") -> list[TxStatus]:
    """Load an :func:`export_csv` trace back into :class:`TxStatus` objects.

    ``succeeded`` and ``latency`` are derived properties of
    :class:`TxStatus`, so only the stored fields are read — a round trip
    re-derives them identically.
    """

    def opt_int(text: str) -> "int | None":
        return int(text) if text else None

    def opt_float(text: str) -> "float | None":
        return float(text) if text else None

    statuses: list[TxStatus] = []
    with open(path, "r", newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            statuses.append(
                TxStatus(
                    tx_id=row["tx_id"],
                    code=ValidationCode[row["code"]],
                    block_num=opt_int(row["block_num"]),
                    tx_num=opt_int(row["tx_num"]),
                    submit_time=opt_float(row["submit_time"]),
                    commit_time=opt_float(row["commit_time"]),
                )
            )
    return statuses


def summarize_run(statuses_by_id: Mapping[str, TxStatus]) -> dict:
    """Compact analysis block: percentiles + failure mix + commit span."""

    statuses = list(statuses_by_id.values())
    succeeded = [s for s in statuses if s.succeeded]
    failed = [s for s in statuses if not s.succeeded]
    codes: dict[str, int] = {}
    for status in failed:
        codes[status.code.name] = codes.get(status.code.name, 0) + 1
    commit_times = [s.commit_time for s in statuses if s.commit_time is not None]
    return {
        "total": len(statuses),
        "successful": len(succeeded),
        "failed": len(failed),
        "failure_codes": codes,
        "latency_percentiles_s": latency_percentiles(statuses),
        "first_commit_s": min(commit_times) if commit_times else None,
        "last_commit_s": max(commit_times) if commit_times else None,
    }
