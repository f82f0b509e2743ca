#!/usr/bin/env python3
"""The repo's wall-clock benchmark: one command, every metric by name and unit.

One run (what the driver calls; the result is the last line of stdout)::

    python3 benchmarks/perf/run.py --workload socket_crdt_hot --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that yields the per-layer metrics
(spans go to ``benchmarks/perf/out/<workload>.spans.jsonl``).  Names, units,
directions and bounds live in ``BENCHMARK.json`` and nowhere else.

Repeated runs, one fresh interpreter each, for A/A checks and comparisons::

    python3 benchmarks/perf/run.py --repeat 5 --out benchmarks/perf/out/a.json
    python3 benchmarks/perf/compare.py benchmarks/perf/out/a.json benchmarks/perf/out/b.json

This module stays import-light: the socket cluster's spawned node processes
re-import it as ``__mp_main__``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

_STARTED = time.perf_counter()

PERF_DIR = Path(__file__).resolve().parent
SRC_DIR = PERF_DIR.parents[1] / "src"

#: Set-up repetitions of an untraced full-scale run; ``setup_s`` is the fastest:
#: the host's slow stretches only ever lengthen one (see measure.py).
SETUP_REPEATS = 3


def parse_args(argv: "list[str] | None" = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="workload name (repeatable)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None, help="measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink warm-up, populated keys and round sizes (tests use 0.01)",
    )
    parser.add_argument(
        "--repeat", type=int, default=None,
        help="run each workload this many times, a fresh interpreter and seed each",
    )
    parser.add_argument("--out", help="with --repeat: write every run's metrics here (JSON)")
    return parser.parse_args(argv)


# -- one run, in this interpreter ----------------------------------------------------


def _untraced(cls, args, import_s: float):
    from measure import end_to_end

    repeats = SETUP_REPEATS if args.scale >= 1.0 else 1
    setups = []
    workload = None
    try:
        for repetition in range(repeats):
            workload = cls(args.seed, args.seconds, args.scale, traced=False)
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
            if repetition < repeats - 1:
                workload.close()
        window = workload.measure(args.seconds)
        problems = workload.check(window)
    finally:
        if workload is not None:
            workload.close()
    setup_s = import_s + min(setups)
    print(f"set-up repetitions: {', '.join(f'{s:.3f}' for s in setups)} s (+{import_s:.3f} s imports)")
    print(
        f"run total: {window.succeeded / window.wall_s:.1f} tx/s over {window.wall_s:.2f} s; "
        f"latency samples: {len(window.latencies_s)}"
    )
    return window, problems, end_to_end(window, setup_s), {}


def _traced(cls, args):
    from measure import OUT_DIR, goodput_tps
    from tracing import Tracer

    tracer = Tracer()
    workload = cls(args.seed, args.seconds, args.scale, traced=True)
    try:
        workload.setup()
        workload.instrument(tracer)
        tracer.watch_gc()
        try:
            window = workload.measure(args.seconds, tracer)
        finally:
            tracer.unwatch_gc()
            tracer.unwrap_all()
        problems = workload.check(window)
        layers = workload.layer_metrics(tracer, window)
    finally:
        workload.close()
    # The window alternates stretches with the wrappers on and off, on one
    # network and seconds apart; the rates of the two halves differ by what
    # tracing costs.  End-to-end numbers never come from this run.
    traced, reference = window.only(True), window.only(False)
    if reference.units:
        layers["runtime.tracing_overhead_pct"] = 100.0 * (
            1.0 - goodput_tps(traced) / goodput_tps(reference)
        )
    else:
        tracer.missing["runtime.tracing_overhead_pct"] = "window too short for an untraced stretch"

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT_DIR / f"{cls.name}.spans.jsonl")
    covered = sum(entry[2] for entry in tracer.stats.values())
    in_layers = covered - tracer.self_s("harness.wave") - tracer.self_s("workload.benchmark_run")
    print(
        f"spans: {len(tracer.spans)}; self times sum to {covered:.3f} s of the "
        f"{traced.wall_s:.3f} s measured with wrappers on "
        f"({100 * covered / traced.wall_s:.1f} %), "
        f"{100 * in_layers / traced.wall_s:.1f} % below the harness's own span"
    )
    return window, problems, layers, tracer.missing


def run_once(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC_DIR))
    from measure import OUT_DIR, load_catalog, pin_to_one_cpu

    pin_to_one_cpu()
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _STARTED
    catalog = load_catalog()
    name = args.workload[0]
    if name not in WORKLOADS:
        sys.exit(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    if args.seconds is None:
        args.seconds = float(catalog["run_seconds"])

    section = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        window, problems, values, reasons = _traced(WORKLOADS[name], args)
    else:
        window, problems, values, reasons = _untraced(WORKLOADS[name], args, import_s)

    print(f"{name}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    metrics = {}
    for spec in catalog[section]:
        value = values.get(spec["name"])
        if value is None:
            # Not a layer of this workload, or a probe whose target is gone:
            # the result line needs a number, the table says which it is.
            why = reasons.get(spec["name"], "layer does not run on this workload")
            print(f"  {spec['name']:<48} {'n/a':>14} {spec['unit']:<6} ({why})")
            value = 0.0
        else:
            print(f"  {spec['name']:<48} {value:>14.4f} {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    for probe, why in sorted(reasons.items()):
        if probe not in metrics:
            print(f"  note: {probe}: {why}")
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{name}.layers.json").write_text(
            json.dumps({"values": values, "reasons": reasons}, indent=1, sort_keys=True)
        )
    failed = window.attempted - window.succeeded
    print(f"  ops_attempted {window.attempted}  ops_failed {failed}")
    for problem in problems:
        print(f"  ORACLE VIOLATION: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": window.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if problems else 0


# -- repeated runs, a fresh interpreter each -----------------------------------------


def run_repeated(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(PERF_DIR))
    from measure import load_catalog, quartile_spread

    catalog = load_catalog()
    names = args.workload or [workload["name"] for workload in catalog["workloads"]]
    repeat = args.repeat or 1
    section = "per_layer" if args.trace else "end_to_end"
    runs: dict[str, list[dict]] = {}
    status = 0
    for name in names:
        for repetition in range(repeat):
            command = [
                sys.executable, str(PERF_DIR / "run.py"),
                "--workload", name, "--seed", str(args.seed + repetition),
                "--trace", str(args.trace), "--scale", str(args.scale),
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            done = subprocess.run(command, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stdout + done.stderr)
                print(f"{name} run {repetition}: FAILED (exit {done.returncode})")
                status = 1
                continue
            result = json.loads(lines[-1])
            runs.setdefault(name, []).append(result)
            shown = "  ".join(
                f"{metric}={entry['value']:.4g}" for metric, entry in result["metrics"].items()
            ) if not args.trace else f"{len(result['metrics'])} layer metrics"
            print(f"{name} run {repetition} seed {args.seed + repetition}: {shown}", flush=True)

    bounds = {spec["name"]: spec.get("bound") for spec in catalog[section]}
    print(f"\n{'workload':<28}{'metric':<44}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
    for name, results in runs.items():
        for metric in results[0]["metrics"]:
            values = [result["metrics"][metric]["value"] for result in results]
            median, q1, q3, spread = quartile_spread(values)
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s" and spread > bound:
                flag = "  spread exceeds bound"
            print(
                f"{name:<28}{metric:<44}{median:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                f"{100 * spread:>8.2f}%{'' if bound is None else f'{100 * bound:>7.0f}%'}{flag}"
            )
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps({"section": section, "runs": runs}, indent=1))
        print(f"wrote {args.out}")
    return status


def main() -> int:
    args = parse_args()
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        sys.exit(f"the program under test is not here: {SRC_DIR / 'repro'} is missing")
    from measure import stop_child_processes

    # A driver that gives up on a run sends SIGTERM: leave through the
    # ``finally`` blocks then too, so no node process is orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.repeat is None and args.workload and len(args.workload) == 1:
            return run_once(args)
        return run_repeated(args)
    finally:
        stop_child_processes()


if __name__ == "__main__":
    sys.exit(main())
