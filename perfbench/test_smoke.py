"""Smoke test of the benchmark harness, so that it cannot rot.

Runs ``run.py --smoke`` on every workload, traced and untraced, at a reduced
grid, and checks the result line against BENCHMARK.json, every reference
check and the exact per-level counts.  Not part of the library's test suite;
run it from the repository root with

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# counts per analysis level at the parent of the benchmark
PER_LEVEL = {"residual.flux.calls": 3, "residual.strong_residual.calls": 2,
             "multiplier.pmc_multiplier.calls": 1,
             "surface.gauss_map_gradient_norm.calls": 3}


def _run(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run(workload, trace):
    proc = _run(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert all(math.isfinite(v["value"]) for v in metrics.values())
    if trace:
        expect = dict(PER_LEVEL)
        if workload == "pmc_cylinder":
            expect["multiplier.pmc_multiplier.calls"] = 2
        assert {k: metrics[k]["value"] for k in expect} == expect
    else:
        assert "failed_frac" in proc.stdout
    record = json.loads((BENCH / "results" /
                         f"{workload}-seed7-trace{trace}-smoke.json")
                        .read_text())
    for key in ("git_sha", "seed", "params", "nproc", "cpu_model", "python",
                "numpy", "scipy"):
        assert key in record["stamp"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "results",
                                                  "__pycache__"))
    proc = _run(tmp_path, "branch_th3", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
