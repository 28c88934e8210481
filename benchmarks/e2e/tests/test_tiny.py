"""``--tiny`` runs every workload end to end in a few seconds.

Also checks the command's contract: the last line of stdout is the result
object with every metric of ``BENCHMARK.json``, a traced run writes a
valid Chrome trace, and a directory without ``src/repro`` is refused.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from repro.obs import validate_chrome_trace

ROOT = Path(__file__).resolve().parents[3]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT, timeout: float = 120) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "benchmarks.e2e", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_plain_run(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--trace", "0", "--tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["sim-rest", "fleet-cold"])
def test_tiny_traced_run_writes_a_valid_chrome_trace(workload):
    proc = _run("--workload", workload, "--seed", "3", "--trace", "1", "--tiny")
    result = _result(proc)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert result["metrics"]["sim.events"]["value"] > 0
    assert result["metrics"]["trace.overhead_x"]["value"] > 0
    trace = ROOT / ".e2e-work" / "traces" / f"{workload}-seed3.trace.json"
    assert validate_chrome_trace(json.loads(trace.read_text())) == []


def test_a_window_other_than_run_seconds_is_refused():
    proc = _run("--workload", "sim-fig2", "--seconds", str(BENCH["run_seconds"] + 1),
                "--trace", "0", timeout=60)
    assert proc.returncode == 2
    assert "run_seconds" in proc.stderr and '"correct"' not in proc.stdout


def test_checkout_without_sources_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "sim-fig2", "--seed", "1",
                "--seconds", str(BENCH["run_seconds"]), "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
