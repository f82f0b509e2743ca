"""The declarative benchmark runner: Caliper's architecture over the Gateway.

Hyperledger Caliper structures an experiment as *rounds* — each with a
workload, a rate controller, and a set of clients — observed by listeners
and summarized by a reporter.  This module is that surface for the
reproduction::

    from repro.workload.runner import Benchmark, Round
    from repro.workload.rate import FixedRate, MaxRate

    report = Benchmark(
        rounds=[
            Round(spec, fabriccrdt_config(25), label="FabricCRDT"),
            Round(spec.with_crdt(False), fabric_config(400), label="Fabric"),
        ],
        cost=calibrated_cost_model(),
    ).run()
    report.results[0].throughput_tps

Every round builds a fresh discrete-event network (rounds are independent
experiments, exactly like the monolithic driver ran them), pre-populates
the ledger, wires a :class:`~repro.workload.metrics.MetricsCollector` to
``gateway.block_events()``, starts the round's client strategy, and runs
the simulation until every planned transaction resolves.

The default round — open-loop :class:`~repro.workload.rate.FixedRate`
clients — reproduces the historical ``run_workload`` byte-for-byte: same
plan, same per-client processes, same metrics.  Closed-loop rounds
(:class:`~repro.workload.rate.MaxRate`) instead drive an event-reacting
:class:`~repro.workload.clients.ClosedLoopClient` that refills its window
through coalesced ``Contract.submit_batch`` bursts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..common.config import NetworkConfig
from ..core.network import peer_factory_for
from ..fabric.costmodel import CostModel
from ..fabric.network import SimulatedNetwork
from ..fabric.orderer import OrderingService
from ..gateway import Gateway
from ..sim.engine import Environment
from .clients import ClientStrategy, ClosedLoopClient, OpenLoopClient, RoundContext
from .generator import generate_plan, keys_to_populate
from .iot import IOT_CHAINCODE_NAME, IoTChaincode
from .metrics import BenchmarkResult, MetricsCollector, Trim
from .rate import FixedRate, RateController
from .spec import WorkloadSpec

#: Keys per bootstrap ``populate`` transaction (keeps envelopes moderate).
POPULATE_CHUNK = 500


def build_network(
    env: Environment,
    config: NetworkConfig,
    cost: Optional[CostModel] = None,
    ordering_cls: Optional[type[OrderingService]] = None,
) -> SimulatedNetwork:
    """A simulated network with the right peer type for ``config``."""

    kwargs = {} if ordering_cls is None else {"ordering_cls": ordering_cls}
    return SimulatedNetwork(
        env, config, cost=cost, peer_factory=peer_factory_for(config), **kwargs
    )


def populate_ledger(network: SimulatedNetwork, keys: list[str]) -> None:
    """Pre-populate every read key with its initial device state (§7.2)."""

    if not keys:
        return
    chunks = [keys[i : i + POPULATE_CHUNK] for i in range(0, len(keys), POPULATE_CHUNK)]
    network.bootstrap(
        IOT_CHAINCODE_NAME,
        "populate",
        [(json.dumps({"keys": chunk}),) for chunk in chunks],
    )


@dataclass
class Round:
    """One experiment: a workload on a network, paced by a rate controller.

    ``rate`` defaults to open-loop :class:`FixedRate` at the spec's own
    ``rate_tps``; ``client`` defaults to the strategy matching the
    controller (open-loop fire-and-forget, or the event-driven closed loop
    for :class:`~repro.workload.rate.MaxRate`).  ``ordering_cls`` swaps the
    ordering service implementation (used by the reordering ablation).
    ``trim`` excludes the round's warm-up/cool-down edges from the reported
    metrics (Caliper's ``trim`` option) — the run itself is unchanged, only
    the reporting window shrinks.
    """

    spec: WorkloadSpec
    config: NetworkConfig
    rate: Optional[RateController] = None
    client: Optional[ClientStrategy] = None
    label: Optional[str] = None
    ordering_cls: Optional[type[OrderingService]] = None
    trim: Optional[Trim] = None

    def resolved_rate(self) -> RateController:
        return self.rate if self.rate is not None else FixedRate(self.spec.rate_tps)

    def resolved_client(self) -> ClientStrategy:
        if self.client is not None:
            return self.client
        if self.resolved_rate().closed_loop:
            return ClosedLoopClient()
        return OpenLoopClient()

    def resolved_label(self) -> str:
        if self.label is not None:
            return self.label
        system = "FabricCRDT" if self.config.crdt_enabled else "Fabric"
        return f"{system}-{self.config.orderer.max_message_count}txb"


@dataclass
class BenchmarkReport:
    """Per-round results of one :class:`Benchmark` run.

    ``telemetry`` holds one snapshot per round when the benchmark ran
    with telemetry enabled: ``{"label", "metrics", "spans"}`` — the
    round's registry snapshot and lifecycle spans (sim-clock), both
    JSON-safe.  It stays empty (and out of ``to_dict``) otherwise, so
    existing report artifacts are unchanged.
    """

    results: list[BenchmarkResult] = field(default_factory=list)
    telemetry: list[dict] = field(default_factory=list)

    def rows(self) -> list[dict]:
        """Figure-shaped rows (label / throughput / latency / successes)."""

        return [result.row() for result in self.results]

    def to_dict(self) -> dict:
        """Full serializable form: every metric of every round."""

        data = {
            "results": [result.to_dict() for result in self.results],
            "rows": self.rows(),
        }
        if self.telemetry:
            data["telemetry"] = self.telemetry
        return data

    def by_label(self) -> dict[str, BenchmarkResult]:
        return {result.label: result for result in self.results}


def run_round(
    round_: Round,
    cost: Optional[CostModel] = None,
    max_sim_time: float = 1e7,
    telemetry=None,
) -> BenchmarkResult:
    """Execute one round on a fresh network and return its metrics.

    The run ends when the collector has seen every planned transaction
    resolve.  ``max_sim_time`` is a safety net against protocol bugs that
    stop commits: if virtual time would pass it first, the round aborts
    with a :class:`RuntimeError` naming the unresolved count (rather than
    stepping a wedged simulation forever).
    """

    env = Environment()
    network = build_network(env, round_.config, cost, ordering_cls=round_.ordering_cls)
    network.deploy(IoTChaincode())

    rate = round_.resolved_rate()
    plan = generate_plan(round_.spec, rate=rate)
    populate_ledger(network, keys_to_populate(round_.spec, plan))

    if telemetry is not None:
        # After bootstrap so metrics cover the measured run only; spans
        # ride the sim clock (see SimulatedNetwork.enable_telemetry).
        network.enable_telemetry(telemetry)

    gateway = Gateway.connect(network)
    collector = MetricsCollector(env, expected=len(plan))
    events = gateway.block_events()
    collector.observe(events)

    contract = gateway.get_contract(IOT_CHAINCODE_NAME)
    client = round_.resolved_client()
    ctx = RoundContext(
        env=env,
        gateway=gateway,
        contract=contract,
        plan=plan,
        collector=collector,
        rate=rate,
    )
    client.start(ctx)

    # env.run(until=collector.done), bounded by max_sim_time.  The inline
    # loop steps in exactly the order env.run would (stop-event check, then
    # step), so metrics stay byte-identical to the unbounded run whenever
    # the round finishes in time.
    while not collector.done.processed and env.peek() <= max_sim_time:
        env.step()
    client.finish()
    events.close()
    network.close()
    env.close()  # the round is over: free its network now, not at the next full collection
    if not collector.done.triggered:
        raise RuntimeError(
            f"round ended with {len(collector.statuses)}/{len(plan)} "
            f"transactions resolved (virtual time {env.now:g}s, "
            f"cap {max_sim_time:g}s)"
        )

    merge_work = {
        "merge_ops": network.anchor_peer.stats.get("merge_ops_total"),
        "merge_scan_steps": network.anchor_peer.stats.get("merge_scan_steps_total"),
    }
    return collector.result(round_.resolved_label(), merge_work, trim=round_.trim)


class Benchmark:
    """A declared sequence of rounds, run in order on fresh networks.

    ``reporter`` (see :mod:`repro.workload.reporter`) is notified with the
    finished :class:`BenchmarkReport`; pass e.g. a ``JsonReporter`` to
    persist the ``BENCH_*.json``-shaped rows.
    """

    def __init__(
        self,
        rounds: Sequence[Round],
        cost: Optional[CostModel] = None,
        reporter: Optional[object] = None,
        max_sim_time: float = 1e7,
        telemetry: bool = False,
    ) -> None:
        if not rounds:
            raise ValueError("a benchmark needs at least one round")
        self.rounds = list(rounds)
        self.cost = cost
        self.reporter = reporter
        self.max_sim_time = max_sim_time
        self.telemetry = telemetry

    def run(self) -> BenchmarkReport:
        report = BenchmarkReport()
        for round_ in self.rounds:
            round_telemetry = None
            if self.telemetry:
                from ..telemetry import Telemetry

                round_telemetry = Telemetry()
            report.results.append(
                run_round(
                    round_,
                    cost=self.cost,
                    max_sim_time=self.max_sim_time,
                    telemetry=round_telemetry,
                )
            )
            if round_telemetry is not None:
                report.telemetry.append(
                    {
                        "label": round_.resolved_label(),
                        "metrics": round_telemetry.metrics.snapshot(),
                        "spans": [
                            span.to_dict() for span in round_telemetry.spans
                        ],
                    }
                )
        if self.reporter is not None:
            self.reporter.emit(report)
        return report

    def __repr__(self) -> str:
        labels = ", ".join(round_.resolved_label() for round_ in self.rounds)
        return f"Benchmark([{labels}])"
