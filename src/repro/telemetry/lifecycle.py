"""The transaction-lifecycle span convention and tree/breakdown helpers.

A submitted transaction crosses six phases (Figure 1 of the paper, plus
the split commit):

    submit → endorse → order → deliver → validate → apply

Each phase's span ID is a pure function of ``(tx_id, phase, node)``::

    {tx_id}:submit                  client-side (one per transaction)
    {tx_id}:endorse:{peer}          one per endorsing peer
    {tx_id}:order                   orderer (arrival → block cut)
    {tx_id}:deliver:{peer}          block reception at each peer
    {tx_id}:validate:{peer}         VSCC/MVCC/merge at each peer
    {tx_id}:apply:{peer}            WriteBatch application at each peer

and its parent ID follows :data:`PHASE_PARENT` with the same derivation.
Because the IDs are deterministic, spans recorded *in different
processes* — client, orderer, peers — link into one tree when collected,
with no trace context on the wire (the wire protocol is unchanged except
for the out-of-band ``metrics`` request).

:func:`record_phase` is the one call every instrumentation site makes
(:func:`record_commit_phases` makes it for a committed block's three
per-peer phases); it checks the sampler, so unsampled transactions cost
one hash and no allocation.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from ..sim.monitor import summarize
from .spans import Span

#: Lifecycle phases in pipeline order.
PHASES = ("submit", "endorse", "order", "deliver", "validate", "apply")

#: Phases whose span exists once per node (the rest are once per trace).
NODE_PHASES = frozenset({"endorse", "deliver", "validate", "apply"})

#: Parent phase of each phase (``None`` roots the tree at submit).
PHASE_PARENT: dict[str, Optional[str]] = {
    "submit": None,
    "endorse": "submit",
    "order": "submit",
    "deliver": "order",
    "validate": "deliver",
    "apply": "validate",
}


def lifecycle_span_id(tx_id: str, phase: str, node: str = "") -> str:
    """The deterministic span ID of one ``(tx, phase, node)``."""

    if phase not in PHASE_PARENT:
        raise ValueError(f"unknown lifecycle phase {phase!r}")
    if phase in NODE_PHASES:
        if not node:
            raise ValueError(f"phase {phase!r} needs a node name")
        return f"{tx_id}:{phase}:{node}"
    return f"{tx_id}:{phase}"


def lifecycle_parent_id(tx_id: str, phase: str, node: str = "") -> Optional[str]:
    """The span ID this phase links under (same node for per-node chains)."""

    parent = PHASE_PARENT[phase]
    if parent is None:
        return None
    return lifecycle_span_id(tx_id, parent, node if parent in NODE_PHASES else "")


def record_phase(
    telemetry,
    phase: str,
    tx_id: str,
    start: float,
    end: float,
    node: str = "",
    **attrs,
) -> Optional[Span]:
    """Record one lifecycle span if telemetry is on and the trace sampled.

    ``telemetry`` may be ``None`` (telemetry off) — instrumentation sites
    call unconditionally and this guard keeps them one branch.
    """

    if telemetry is None or not telemetry.tracer.sampled(tx_id):
        return None
    span = Span(
        trace_id=tx_id,
        name=phase,
        span_id=lifecycle_span_id(tx_id, phase, node),
        parent_id=lifecycle_parent_id(tx_id, phase, node),
        node=node,
        start=start,
        end=end,
        attrs=dict(attrs),
    )
    return telemetry.tracer.record(span)


def record_commit_phases(
    telemetry,
    node: str,
    prepared,
    received: float,
    picked_up: float,
    validated: float,
    applied: float,
) -> None:
    """One committed block's deliver / validate / apply spans, per transaction.

    ``prepared`` is the peer's :class:`~repro.fabric.peer.PreparedCommit`;
    the four instants bound the three phases: deliver = block receipt ->
    committer pickup, validate = ``prepare_block``, apply = the
    ``WriteBatch`` commit.
    """

    number = prepared.block.number
    for tx_index, tx in enumerate(prepared.block.transactions):
        record_phase(
            telemetry, "deliver", tx.tx_id, received, picked_up, node=node, block=number
        )
        record_phase(
            telemetry, "validate", tx.tx_id, picked_up, validated, node=node,
            code=prepared.metadata.code_for(tx_index).name,
        )
        record_phase(
            telemetry, "apply", tx.tx_id, validated, applied, node=node, block=number
        )


# -- assembling collected spans ------------------------------------------------


def phases_by_trace(spans: Iterable[Span]) -> dict[str, dict[str, list[Span]]]:
    """``trace_id -> phase -> spans`` over any span collection."""

    grouped: dict[str, dict[str, list[Span]]] = {}
    for span in spans:
        grouped.setdefault(span.trace_id, {}).setdefault(span.name, []).append(span)
    return grouped


def complete_traces(
    spans: Iterable[Span], required: Sequence[str] = PHASES
) -> list[str]:
    """Trace IDs that carry at least one span of every required phase."""

    grouped = phases_by_trace(spans)
    return sorted(
        trace_id
        for trace_id, phases in grouped.items()
        if all(phase in phases for phase in required)
    )


def span_tree(spans: Iterable[Span], trace_id: str) -> list[tuple[int, Span]]:
    """One trace's spans as ``(depth, span)`` rows in parent-first order.

    Orphans (a parent span that was never collected, e.g. an unsampled
    process) root at depth 0, so partial traces still render.
    """

    trace = [span for span in spans if span.trace_id == trace_id]
    by_id = {span.span_id: span for span in trace}
    children: dict[Optional[str], list[Span]] = {}
    for span in trace:
        parent = span.parent_id if span.parent_id in by_id else None
        children.setdefault(parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.start, s.span_id))

    rows: list[tuple[int, Span]] = []

    def walk(parent: Optional[str], depth: int) -> None:
        for span in children.get(parent, []):
            rows.append((depth, span))
            walk(span.span_id, depth + 1)

    walk(None, 0)
    return rows


def format_span_tree(spans: Iterable[Span], trace_id: str) -> str:
    """A printable tree of one trace (used by the bench CLI and example)."""

    rows = span_tree(spans, trace_id)
    lines = [f"trace {trace_id}"]
    for depth, span in rows:
        where = f" @{span.node}" if span.node else ""
        lines.append(
            f"  {'  ' * depth}{span.name:<10} {span.start:>10.4f} → {span.end:<10.4f}"
            f" ({span.duration * 1000.0:8.3f} ms){where}"
        )
    return "\n".join(lines)


def phase_breakdown(spans: Iterable[Span]) -> dict[str, dict]:
    """Per-phase duration statistics across every collected trace."""

    durations: dict[str, list[float]] = {phase: [] for phase in PHASES}
    for span in spans:
        if span.name in durations:
            durations[span.name].append(span.duration)
    return {
        phase: summarize(values)
        for phase, values in durations.items()
        if values
    }


def format_breakdown(breakdown: Mapping[str, dict]) -> str:
    """The per-phase latency table the smoke run and tour print."""

    lines = [
        f"{'phase':<10} {'count':>7} {'mean':>12} {'p50':>12} {'p95':>12} {'max':>12}"
    ]
    for phase in PHASES:
        stats = breakdown.get(phase)
        if not stats:
            continue

        def ms(value: float) -> str:
            return f"{value * 1000.0:9.3f} ms"

        lines.append(
            f"{phase:<10} {stats['count']:>7} {ms(stats['mean']):>12}"
            f" {ms(stats['p50']):>12} {ms(stats['p95']):>12} {ms(stats['max']):>12}"
        )
    return "\n".join(lines)
