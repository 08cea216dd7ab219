"""Quick self-check of the benchmark: every workload at tiny size.

Asserts that each run emits exactly the metric names ``BENCHMARK.json``
declares, that every op matches its stored digest, and that a corrupted
expected digest is reported as a failed op.  Run from the repository
root::

    python3 -m pytest perfbench/selfcheck.py -q
    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def bench(workload: str, trace: int, *extra: str, seed: int = 0) -> "tuple[dict, dict]":
    """One tiny run: the contract line and the fuller result file."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny",
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode == 0, completed.stderr
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_out" /
                         f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return line, record


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_and_digests(workload: str, trace: int) -> None:
    line, record = bench(workload, trace)
    declared = {metric["name"]: metric["unit"]
                for metric in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {name: value["unit"] for name, value in line["metrics"].items()} == declared
    assert record["digests"] == "stored"
    assert line["attempted"] >= 1
    assert line["failed"] == 0 and line["correct"], record["failures"]


# Seed 5 has no stored digests: its run must still catch the corruption
# through the ops it runs on the stored seed.
@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_digest_fails(workload: str, seed: int) -> None:
    table = json.loads((HERE / "expected" / f"{workload}.json").read_text())
    first = table["tiny"]["0"][0]
    table["tiny"]["0"][0] = "0" * len(first)
    corrupted = ROOT / ".bench_out" / f"corrupted-{workload}.json"
    corrupted.parent.mkdir(exist_ok=True)
    corrupted.write_text(json.dumps(table))
    line, record = bench(workload, 0, "--expected", str(corrupted), seed=seed)
    assert line["failed"] >= 1 and not line["correct"]
    assert record["failed_frac"] > 0


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
