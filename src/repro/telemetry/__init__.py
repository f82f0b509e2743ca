"""End-to-end telemetry: lifecycle tracing, metrics registry, exporters.

The paper reports three aggregate metrics per experiment; this package
provides the *internal* observability every deeper question needs — where
a transaction spends its time across endorse → order → validate → commit,
and what each node's hot paths cost.  Three pieces:

* :mod:`~repro.telemetry.spans` — lightweight spans with parent/child
  links, recorded against an **injected clock** so the same tracing code
  measures virtual seconds in DES runs and wall-clock seconds in socket
  runs.  Sampling is a deterministic hash of the trace ID.
* :mod:`~repro.telemetry.metrics` — a registry of counters, gauges, and
  fixed-bucket histograms (Prometheus data model), snapshot-able to plain
  JSON and mergeable across processes.
* :mod:`~repro.telemetry.export` — JSONL span/metric dumps and a
  Prometheus text-format renderer.

**Telemetry is opt-in, out-of-band, and non-perturbing.**  Protocol
classes carry a ``None`` telemetry handle by default and every
instrumentation site is a single branch; recording never draws RNG,
schedules simulation events, or performs I/O, so the golden deterministic
fingerprint of an instrumented run is byte-identical to an
uninstrumented one (CI enforces this).

:class:`Telemetry` is the facade one run carries: a tracer and a registry
sharing one clock.  ``bind_clock`` re-points that clock (e.g. at a DES
environment's ``env.now``) after construction.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from .lifecycle import (
    NODE_PHASES,
    PHASE_PARENT,
    PHASES,
    complete_traces,
    format_breakdown,
    format_span_tree,
    lifecycle_parent_id,
    lifecycle_span_id,
    phase_breakdown,
    phases_by_trace,
    record_commit_phases,
    record_phase,
    span_tree,
)
from .metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)
from .spans import DEFAULT_MAX_SPANS, HashSampler, Span, Tracer


class Telemetry:
    """One run's telemetry context: a tracer + a metrics registry.

    ``clock`` is any zero-argument callable returning seconds; ``None``
    defaults to monotonic seconds since this object was created (the
    convention the socket servers use).  DES runs call
    :meth:`bind_clock` with ``lambda: env.now`` so spans carry virtual
    time.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        sample_rate: float = 1.0,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        self._clock = clock
        self._epoch = time.monotonic()
        self.tracer = Tracer(
            self.now, sampler=HashSampler(sample_rate), max_spans=max_spans
        )
        self.metrics = MetricsRegistry()

    def now(self) -> float:
        if self._clock is not None:
            return self._clock()
        return time.monotonic() - self._epoch

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Re-point the active clock (tracer reads it late-bound)."""

        self._clock = clock

    @property
    def spans(self) -> list[Span]:
        return self.tracer.spans

    def __repr__(self) -> str:
        return (
            f"<Telemetry spans={len(self.tracer.spans)} "
            f"metrics={len(self.metrics)}>"
        )


__all__ = [
    "Counter",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_MAX_SPANS",
    "DEFAULT_SECONDS_BUCKETS",
    "Gauge",
    "HashSampler",
    "Histogram",
    "MetricsRegistry",
    "NODE_PHASES",
    "PHASES",
    "PHASE_PARENT",
    "Span",
    "Telemetry",
    "Tracer",
    "complete_traces",
    "format_breakdown",
    "format_span_tree",
    "lifecycle_parent_id",
    "lifecycle_span_id",
    "merge_snapshots",
    "phase_breakdown",
    "phases_by_trace",
    "record_commit_phases",
    "record_phase",
    "span_tree",
]
