"""Tier-1 guard for the benchmark harness: it runs, and it prints the contract.

Every workload runs once at 1 % scale in a fresh interpreter — oracle on —
and the names it prints must be exactly the ones ``BENCHMARK.json`` lists.
Timings are not asserted here; this only keeps the measuring stick whole.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parent
CATALOG = json.loads((PERF_DIR.parents[1] / "BENCHMARK.json").read_text())


def run_small(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(PERF_DIR / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "0.25",
            "--trace", str(trace), "--scale", "0.01",
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [entry["name"] for entry in CATALOG["workloads"]])
def test_workload_prints_the_end_to_end_contract(workload):
    result = run_small(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {spec["name"]: spec["unit"] for spec in CATALOG["end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_run_prints_every_layer_metric():
    result = run_small("local_crdt_mixed", trace=1)
    assert result["correct"] is True
    assert list(result["metrics"]) == [spec["name"] for spec in CATALOG["per_layer"]]
    assert result["metrics"]["fabric.peer.prepare_block_ms_per_block"]["value"] > 0
    spans = PERF_DIR / "out" / "local_crdt_mixed.spans.jsonl"
    first = json.loads(spans.read_text().splitlines()[0])
    assert {"id", "parent", "name", "start", "end", "wave"} <= set(first)
