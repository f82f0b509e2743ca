"""Command-line entry point: regenerate the paper's figures.

Usage::

    python -m repro.bench fig3              # full scale (10,000 txs/run)
    python -m repro.bench fig7 --transactions 2000
    python -m repro.bench all --transactions 1000 --json results.json
    python -m repro.bench calibration       # print the fitted constants
    python -m repro.bench smoke             # <60s CI two-round Benchmark
    python -m repro.bench smoke --json out.json --golden benchmarks/golden/smoke.json

``smoke`` runs one declarative two-round Benchmark (FabricCRDT at its best
block size vs vanilla Fabric at its own) through the full Gateway → DES →
commit → metrics pipeline.  ``--golden`` compares the run's deterministic
metrics against a checked-in fingerprint and exits non-zero on drift;
``--write-golden`` regenerates that fingerprint file.

Full-scale runs take minutes (Figure 3's 1000-tx blocks do real quadratic
merge work); scaled-down runs preserve the qualitative shapes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..telemetry import merge_snapshots
from ..workload.reporter import format_result_details
from ..workload.reporter import JsonReporter, deterministic_fingerprint, golden_drift
from ..workload.runner import Benchmark, Round
from ..workload.spec import table1_spec
from .calibration import calibrated_cost_model, calibration_report
from .experiments import (
    CRDT_BLOCK_SIZE,
    FABRIC_BLOCK_SIZE,
    FIGURES,
    ExperimentScale,
    _network_config,
)


def _smoke_benchmark(
    scale: ExperimentScale, json_path: "str | None", telemetry: bool = False
) -> "Benchmark":
    """The CI smoke experiment as a declared two-round Benchmark."""

    spec = table1_spec(total_transactions=scale.transactions, seed=7)
    return Benchmark(
        rounds=[
            Round(spec, _network_config(scale, CRDT_BLOCK_SIZE, True)),
            Round(
                spec.with_crdt(False),
                _network_config(scale, FABRIC_BLOCK_SIZE, False),
            ),
        ],
        cost=calibrated_cost_model(),
        reporter=JsonReporter(json_path) if json_path else None,
        telemetry=telemetry,
    )


def _run_smoke(args: argparse.Namespace) -> int:
    scale = ExperimentScale(
        transactions=min(args.transactions, 300),
        light_topology=not args.full_topology,
        seed=args.seed,
        state_backend=args.state_backend,
    )
    started = time.time()
    report = _smoke_benchmark(scale, args.json, telemetry=args.telemetry).run()
    for result in report.results:
        print(format_result_details(result))
        print()
    print(f"[smoke: {time.time() - started:.1f}s wall clock, "
          f"{scale.transactions} txs/round, 2 rounds, "
          f"{scale.state_backend} state backend]")
    if args.json:
        print(f"benchmark results written to {args.json}")
    if args.telemetry:
        from .telemetry import dump_round_telemetry, summarize_round_telemetry

        incomplete = []
        for index, entry in enumerate(report.telemetry):
            print()
            if not summarize_round_telemetry(entry, show_tree=index == 0):
                incomplete.append(entry["label"])
            if args.telemetry_dir:
                for path in dump_round_telemetry(entry, args.telemetry_dir):
                    print(f"telemetry artifact: {path}")
        if incomplete:
            print(
                f"TELEMETRY: no complete lifecycle trace in round(s) "
                f"{', '.join(incomplete)}",
                file=sys.stderr,
            )
            return 1
    fingerprints = [deterministic_fingerprint(result) for result in report.results]
    if args.write_golden:
        with open(args.write_golden, "w", encoding="utf-8") as handle:
            json.dump({"fingerprints": fingerprints}, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"golden fingerprint written to {args.write_golden}")
    if args.golden:
        with open(args.golden, "r", encoding="utf-8") as handle:
            golden = json.load(handle)["fingerprints"]
        drift = golden_drift(report.results, golden)
        if drift is not None:
            print(f"DETERMINISTIC-METRICS DRIFT: {drift}", file=sys.stderr)
            return 1
        print(f"deterministic metrics match {args.golden}")
    return 0


def _run_socket_smoke(args: argparse.Namespace) -> int:
    """Distributed-runtime smoke: multi-process cluster vs in-process run.

    Spawns the orderer and peers as separate OS processes, drives the
    seeded workload over the socket transport, and asserts that every
    remote peer's committed state fingerprint equals the in-process
    :class:`LocalNetwork` run of the same workload.
    """

    from ..net.smoke import run_parity_smoke

    started = time.time()
    report = run_parity_smoke(
        state_backend=args.state_backend,
        transactions=min(args.transactions, 300),
        seed=args.seed if args.seed else 7,
        telemetry=args.telemetry,
    )
    print(report.format())
    print(f"[socket smoke: {time.time() - started:.1f}s wall clock, "
          f"{args.state_backend} state backend]")
    if args.telemetry:
        from .telemetry import dump_round_telemetry, summarize_round_telemetry

        node_payloads = report.remote.telemetry or {}
        entry = {
            "label": f"parity-{report.backend}",
            "metrics": merge_snapshots(
                payload["snapshot"] for payload in node_payloads.values()
            ),
            "spans": [
                span
                for node in sorted(node_payloads)
                for span in node_payloads[node].get("spans", [])
            ],
        }
        print()
        complete = summarize_round_telemetry(entry)
        if args.telemetry_dir:
            snapshots = {
                node: payload["snapshot"] for node, payload in node_payloads.items()
            }
            for path in dump_round_telemetry(
                entry, args.telemetry_dir, transport="socket", node_snapshots=snapshots
            ):
                print(f"telemetry artifact: {path}")
        if not complete:
            print("TELEMETRY: no complete lifecycle trace in socket run", file=sys.stderr)
            return 1
    if args.json:
        payload = {
            "backend": report.backend,
            "passed": report.passed,
            "problems": report.problems,
            "local_fingerprints": report.local.fingerprints,
            "remote_fingerprints": report.remote.fingerprints,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"parity report written to {args.json}")
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the FabricCRDT paper's evaluation figures.",
    )
    parser.add_argument(
        "target",
        choices=[*FIGURES.keys(), "all", "calibration", "smoke"],
        help="which figure to regenerate (smoke: one small fig3 point for CI)",
    )
    parser.add_argument(
        "--transactions",
        type=int,
        default=10000,
        help="transactions per run (paper: 10000)",
    )
    parser.add_argument(
        "--full-topology",
        action="store_true",
        help="use the paper's 3-orgs x 2-peers topology (slower, same metrics)",
    )
    parser.add_argument("--seed", type=int, default=0, help="network seed")
    parser.add_argument(
        "--state-backend",
        choices=["memory", "sqlite"],
        default="memory",
        help="world-state store backend (deterministic metrics are identical)",
    )
    parser.add_argument(
        "--transport",
        choices=["des", "socket"],
        default="des",
        help="(smoke) des: in-process discrete-event pipeline; socket: run the "
        "workload against a real multi-process cluster and assert state "
        "fingerprint parity with an in-process run",
    )
    parser.add_argument("--json", metavar="PATH", help="also dump rows as JSON")
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="(smoke) collect lifecycle spans + node metrics out-of-band; "
        "prints the per-phase latency breakdown (deterministic metrics are "
        "byte-identical with or without this flag)",
    )
    parser.add_argument(
        "--telemetry-dir",
        metavar="DIR",
        help="(smoke --telemetry) write span/metric JSONL dumps and a "
        "Prometheus text page per round under DIR",
    )
    parser.add_argument(
        "--golden",
        metavar="PATH",
        help="(smoke) fail if deterministic metrics drift from this fingerprint file",
    )
    parser.add_argument(
        "--write-golden",
        metavar="PATH",
        help="(smoke) regenerate the deterministic-metrics fingerprint file",
    )
    args = parser.parse_args(argv)

    if args.target == "calibration":
        print(json.dumps(calibration_report(), indent=2))
        return 0

    if args.transport == "socket":
        if args.target != "smoke":
            parser.error("--transport socket only applies to the smoke target")
        return _run_socket_smoke(args)

    if args.target == "smoke":
        return _run_smoke(args)

    scale = ExperimentScale(
        transactions=args.transactions,
        light_topology=not args.full_topology,
        seed=args.seed,
        state_backend=args.state_backend,
    )
    targets = list(FIGURES) if args.target == "all" else [args.target]
    dump: dict[str, list[dict]] = {}
    for name in targets:
        started = time.time()
        result = FIGURES[name](scale)
        elapsed = time.time() - started
        print(result.format())
        print(f"[{name}: {elapsed:.1f}s wall clock, {args.transactions} txs/run]")
        print()
        dump[name] = result.comparison_rows()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(dump, handle, indent=2, default=str)
        print(f"rows written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
