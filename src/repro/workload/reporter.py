"""Reporters: where a benchmark run's results go, and how they read as text.

Caliper separates *measuring* from *reporting*; so does the runner.  A
:class:`Reporter` receives the finished
:class:`~repro.workload.runner.BenchmarkReport` once, after all rounds:

* :class:`JsonReporter` — persists the ``BENCH_*.json`` shape (the
  figure-shaped ``rows`` plus the full per-round metric dicts) to a file;
* :class:`ConsoleReporter` — prints each round's diagnostics block
  (:func:`format_result_details`).

Each of the paper's result figures (3–7) has three panels: (a) successful-
transaction throughput, (b) average latency of successful transactions, and
(c) number of successful transactions — each as a series over the sweep
variable for FabricCRDT and Fabric.  :func:`format_figure` renders exactly
those three rows per system, so a benchmark run prints something directly
comparable to the paper's charts.

``deterministic_fingerprint`` / ``golden_drift`` back the CI golden check:
every metric the simulation produces is a pure function of (spec, config,
cost model), so a checked-in fingerprint detects any drift in the measured
pipeline.  Floats are rounded to 9 significant digits before comparison so
the fingerprint survives serialization round-trips.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .metrics import BenchmarkResult

if TYPE_CHECKING:  # pragma: no cover
    from .runner import BenchmarkReport


def _format_row(label: str, values: Sequence[float], width: int = 9) -> str:
    cells = "".join(f"{value:>{width}.6g}" for value in values)
    return f"{label:<22}{cells}"


def format_figure(
    title: str,
    sweep_label: str,
    sweep_values: Sequence,
    crdt_results: Mapping,
    fabric_results: Mapping,
) -> str:
    """Render one figure's three panels as text.

    ``crdt_results`` / ``fabric_results`` map sweep value ->
    :class:`BenchmarkResult`.  Missing sweep points render as ``nan``.
    """

    def series(results: Mapping, attribute: str) -> list[float]:
        values = []
        for sweep_value in sweep_values:
            result = results.get(sweep_value)
            values.append(getattr(result, attribute) if result is not None else float("nan"))
        return values

    if all(isinstance(v, (int, float)) for v in sweep_values):
        header = _format_row(sweep_label, [float(v) for v in sweep_values])
    else:
        header = f"{sweep_label:<22}" + "".join(f"{str(v):>9}" for v in sweep_values)

    lines = [f"== {title} ==", ""]
    panels = [
        ("(a) successful tx throughput [tx/s]", "throughput_tps"),
        ("(b) avg latency of successful tx [s]", "avg_latency_s"),
        ("(c) number of successful tx", "successful"),
    ]
    for panel_title, attribute in panels:
        lines.append(panel_title)
        lines.append(header)
        lines.append(_format_row("FabricCRDT", series(crdt_results, attribute)))
        lines.append(_format_row("Fabric", series(fabric_results, attribute)))
        lines.append("")
    return "\n".join(lines)


def format_result_details(result: BenchmarkResult) -> str:
    """One result's diagnostics block (for EXPERIMENTS.md appendices)."""

    lines = [
        f"label:                {result.label}",
        f"submitted:            {result.total_submitted}",
        f"successful:           {result.successful}",
        f"failed:               {result.failed}",
        f"duration:             {result.duration_s:.2f} s",
        f"throughput:           {result.throughput_tps:.2f} tx/s",
        f"avg latency:          {result.avg_latency_s:.2f} s",
        f"max latency:          {result.max_latency_s:.2f} s",
        f"blocks committed:     {result.blocks_committed}",
        f"avg block fill:       {result.avg_block_fill:.1f}",
        f"merge ops:            {result.merge_ops}",
        f"merge scan steps:     {result.merge_scan_steps}",
    ]
    if result.failure_codes:
        codes = ", ".join(f"{name}={count}" for name, count in sorted(result.failure_codes.items()))
        lines.append(f"failure codes:        {codes}")
    if result.endorsement_failures:
        lines.append(f"endorsement failures: {result.endorsement_failures}")
    return "\n".join(lines)


class Reporter:
    """Consumes one finished benchmark report."""

    def emit(self, report: "BenchmarkReport") -> None:
        raise NotImplementedError


class ConsoleReporter(Reporter):
    """Print each round's full diagnostics block."""

    def emit(self, report: "BenchmarkReport") -> None:
        for result in report.results:
            print(format_result_details(result))
            print()


class JsonReporter(Reporter):
    """Serialize the report to ``path`` in the ``BENCH_*.json`` shape."""

    def __init__(self, path: str) -> None:
        self.path = path

    def emit(self, report: "BenchmarkReport") -> None:
        payload = report.to_dict()
        tmp_path = f"{self.path}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
        os.replace(tmp_path, self.path)


# ---------------------------------------------------------------------------
# Deterministic-metrics fingerprinting (the CI golden check)
# ---------------------------------------------------------------------------


def _rounded(value: float) -> float:
    return float(f"{value:.9g}")


def deterministic_fingerprint(result: BenchmarkResult) -> dict:
    """The metrics that must never drift for a fixed (spec, config, cost)."""

    return {
        "label": result.label,
        "total_submitted": result.total_submitted,
        "successful": result.successful,
        "failed": result.failed,
        "duration_s": _rounded(result.duration_s),
        "throughput_tps": _rounded(result.throughput_tps),
        "avg_latency_s": _rounded(result.avg_latency_s),
        "max_latency_s": _rounded(result.max_latency_s),
        "failure_codes": dict(sorted(result.failure_codes.items())),
        "blocks_committed": result.blocks_committed,
        "avg_block_fill": _rounded(result.avg_block_fill),
        "merge_ops": result.merge_ops,
        "merge_scan_steps": result.merge_scan_steps,
        "endorsement_failures": result.endorsement_failures,
    }


def golden_drift(
    results: list[BenchmarkResult], golden: list[dict]
) -> Optional[str]:
    """Compare results against a checked-in golden fingerprint list.

    Returns ``None`` when everything matches, else a human-readable
    description of the first drift (for the CI job log).
    """

    if len(results) != len(golden):
        return (
            f"round count drifted: measured {len(results)} rounds, "
            f"golden has {len(golden)}"
        )
    for index, (result, expected) in enumerate(zip(results, golden)):
        measured = deterministic_fingerprint(result)
        for key in sorted(set(measured) | set(expected)):
            if measured.get(key) != expected.get(key):
                return (
                    f"round {index} ({measured['label']}): {key} drifted — "
                    f"measured {measured.get(key)!r}, golden {expected.get(key)!r}"
                )
    return None
