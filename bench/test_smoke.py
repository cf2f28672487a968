"""Smoke test of the benchmark at its smallest size.

    python -m pytest bench

Each workload runs once untraced and once traced in ``--smoke`` mode; the
result must be correct and carry exactly the metrics BENCHMARK.json declares.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Counts that repeat exactly. The quantum_core ones are reached only through
# aliases (symmetry_test.tensor, qmac_framework.overlap), so they also show
# that the tracer rebinds aliases.
SMOKE_COUNTS = {
    "builtin-scenarios": {
        "cli.run.calls": 14,
        "symmetry_test.sweep.calls": 10,
        "qmac_framework.overlap_matrix.calls": 800,
    },
    "classical-ladder": {
        "classical_mac.deception_probabilities.calls": 2,
        "classical_mac.cells_scanned": 11 * 10 * 11**2 + 49 * 48 * 7**2,
    },
    "qmac-ladder": {
        "qmac_framework.overlap_matrix.calls": 2 * 2 * 100,
        "quantum_core.overlap.calls": 400,
    },
    "symtest-oracle": {
        "quantum_core.tensor.calls": 20,
        "quantum_core.projector_bytes": 16 * 3**10,
    },
}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(
        [sys.executable, "bench/run.py", *argv], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def result_of(workload: str, trace: int) -> dict:
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    assert not (ROOT / ".bench_tmp").exists()
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke(workload):
    metrics = result_of(workload, 0)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke(workload):
    metrics = result_of(workload, 1)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, count in SMOKE_COUNTS[workload].items():
        assert metrics[name]["value"] == count, name


def test_fails_without_authsim_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
