#!/usr/bin/env python3
"""Compare two sets of runs written by ``run.py --repeat K --out FILE``.

    python3 benchmarks/perf/compare.py parent.json change.json
    python3 benchmarks/perf/compare.py --symmetric a.json b.json     # A/A check

Per workload and metric it prints both medians and quartiles, the gap of
the second set's median relative to the first (positive = worse, in the
metric's own direction) and the bound ``BENCHMARK.json`` fixes.  Verdicts:

* ``same``        the gap is within the bound;
* ``worse`` / ``better``   the gap exceeds the bound;
* ``unresolved``  either set's own quartile spread is wider than the bound,
  so a gap of that size cannot be told from noise — never reported as "same".

Exit status 1 when any metric is ``worse`` (with ``--symmetric`` also when
``better``: two sets of the *same* code must agree both ways).  Per-layer
sets carry no bounds and get no verdicts.
"""

from __future__ import annotations

import argparse
import json
import sys

from measure import load_catalog, quartile_spread


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""

    if not first:
        return 0.0
    gap = (second - first) / abs(first)
    return gap if better == "lower" else -gap


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first")
    parser.add_argument("second")
    parser.add_argument(
        "--symmetric", action="store_true", help="fail on 'better' too (same-code sets)"
    )
    args = parser.parse_args()
    with open(args.first) as handle:
        first = json.load(handle)
    with open(args.second) as handle:
        second = json.load(handle)
    if first["section"] != second["section"]:
        sys.exit(f"cannot compare a {first['section']} set with a {second['section']} set")
    specs = {spec["name"]: spec for spec in load_catalog()[first["section"]]}

    status = 0
    header = (
        f"{'workload':<27}{'metric':<42}{'first':>11}{'[q1..q3]':>22}"
        f"{'second':>11}{'[q1..q3]':>22}{'gap':>8}{'bound':>7}  verdict"
    )
    print(header)
    for workload in first["runs"]:
        if workload not in second["runs"]:
            print(f"{workload:<27}only in {args.first}")
            continue
        runs_a, runs_b = first["runs"][workload], second["runs"][workload]
        for metric, spec in specs.items():
            if metric not in runs_a[0]["metrics"] or metric not in runs_b[0]["metrics"]:
                continue
            a = quartile_spread([run["metrics"][metric]["value"] for run in runs_a])
            b = quartile_spread([run["metrics"][metric]["value"] for run in runs_b])
            gap = worse_by(a[0], b[0], spec["better"])
            bound = spec.get("bound")
            verdict = ""
            if bound is not None:
                if max(a[3], b[3]) > bound:
                    verdict = "unresolved"
                elif gap > bound:
                    verdict = "worse"
                elif gap < -bound:
                    verdict = "better"
                else:
                    verdict = "same"
                if verdict == "worse" or (args.symmetric and verdict == "better"):
                    status = 1
            print(
                f"{workload:<27}{metric:<42}{a[0]:>11.4f}{f'[{a[1]:.4f}..{a[2]:.4f}]':>22}"
                f"{b[0]:>11.4f}{f'[{b[1]:.4f}..{b[2]:.4f}]':>22}{100 * gap:>+7.1f}%"
                f"{'' if bound is None else f'{100 * bound:>6.0f}%'}  {verdict}"
            )
    failed = sum(
        run["failed"] for runs in second["runs"].values() for run in runs
    ) - sum(run["failed"] for runs in first["runs"].values() for run in runs)
    if failed > 0:
        print(f"the second set has {failed} more failed operations than the first")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
