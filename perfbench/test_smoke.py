"""Smoke test of the benchmark harness: a quick run of every workload, both modes.

    python3 -m pytest -q perfbench/test_smoke.py

`--seconds 0` stops each phase after its minimum number of iterations.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
CHECKS = ["exit_code", "deterministic", "circuit", "unitary", "infidelity", "histogram",
          "reconstructed_pgm"]


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([*BENCHMARK["command"], *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_quick_run(workload, trace):
    done = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert "  error_rate = 0 (0 of" in done.stdout

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    checks = CHECKS + (["exact_counts", "sweep_counts"] if trace else [])
    for check in checks:
        assert f"  check {check}: ok" in lines


def test_fails_without_sources(tmp_path):
    """With only BENCHMARK.json and the benchmark's files there is nothing to run."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = bench(tmp_path, "--workload", BENCHMARK["workloads"][0]["name"], "--seed", "0",
                 "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
