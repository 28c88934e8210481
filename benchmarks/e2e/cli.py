"""Command line of the end-to-end benchmark.

    python -m benchmarks.e2e [--workload W] [--seed S] [--trace 0|1]
                             [--out FILE] [--tiny] [--seconds N]
    python -m benchmarks.e2e compare PARENT.json CHANGE.json

Runs each selected workload (all four by default) in its own child
process, prints every metric with its unit, and ends with one JSON
line per workload: ``{"correct", "attempted", "failed", "metrics"}``.
A plain run reports the end-to-end metrics of ``BENCHMARK.json``; a
``--trace 1`` run reports its per-layer metrics and writes a Chrome
trace under ``.e2e-work/traces/``.  ``--out FILE`` appends the run to
FILE (created if missing) for ``compare``.  Exits 1 if an output check
failed, 2 if this checkout has no ``src/repro`` to benchmark.

The window of a run is ``run_seconds`` of ``BENCHMARK.json``, which
every workload's size is fixed for; ``--tiny`` runs a few seconds
instead.  ``--seconds`` exists for the calling convention of
``BENCHMARK.json``'s command (``--workload W --seed S --seconds N
--trace 0|1``) and must equal ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any

from benchmarks.e2e import compare
from benchmarks.e2e.workloads import DEFAULT_SEED, WORKLOADS, window

__all__ = ["main", "run_workload"]

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = ROOT / "BENCHMARK.json"
WORK = ROOT / ".e2e-work"
#: A workload child that has not finished by then is killed, with its servers.
CHILD_TIMEOUT_S = 170.0


def _env() -> dict[str, str]:
    env = dict(os.environ)
    # The same hash layout in every process of every run: one source of
    # run-to-run variance less.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p
    )
    return env


def _finite(value: float) -> float:
    """JSON has no infinity: a latency made infinite by failures reads 1e9."""
    return value if math.isfinite(value) else 1e9


def run_workload(name: str, *, seed: int, trace: bool, tiny: bool,
                 bench: dict[str, Any]) -> dict[str, Any]:
    """Run one workload child; returns the run record (result line + report)."""
    spec = WORKLOADS[name]
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = work / "result.json"
    argv = [
        sys.executable, "-m", f"benchmarks.e2e.{spec.kind}load",
        "--workload", name, "--seed", str(seed),
        "--trace", str(int(trace)), "--work", str(work), "--result", str(result),
        # Relative to the checkout (the child's working directory), as recorded.
        "--trace-file", str((WORK / "traces" / f"{name}-seed{seed}.trace.json").relative_to(ROOT)),
    ] + (["--tiny"] if tiny else [])
    # Own session: on a timeout the whole group (child and servers) dies.
    child = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=sys.stderr,
                             start_new_session=True)
    try:
        code = child.wait(CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise RuntimeError(f"{name}: workload child timed out")
    try:
        if code != 0 or not result.exists():
            raise RuntimeError(f"{name}: workload child exited with {code}")
        out = json.loads(result.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wanted = bench["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in out["metrics"]]
    problems = out["problems"] + out.get("trace_problems", []) + [
        f"metric {name} not measured" for name in missing
    ]
    return {
        # ``tiny`` and ``seconds`` say which runs ``compare`` may pool.
        "workload": name, "seed": seed, "trace": bool(trace), "tiny": tiny,
        "seconds": window(tiny),
        "correct": out["failed"] == 0 and not problems,
        "attempted": out["attempted"], "failed": out["failed"],
        "metrics": {m["name"]: {"value": _finite(out["metrics"][m["name"]]), "unit": m["unit"]}
                    for m in wanted if m["name"] in out["metrics"]},
        "report": out.get("report", {}),
        "problems": problems,
        "trace_file": out.get("trace_file"),
        "digests": out.get("digests"),
    }


def _print_run(run: dict[str, Any]) -> None:
    print(f"== {run['workload']} seed {run['seed']}"
          f"{' (traced)' if run['trace'] else ''}: {run['attempted']} operations, "
          f"{run['failed']} failed")
    for name, metric in run["metrics"].items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    for name, value in run["report"].items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name:28s} {shown}")
    for problem in run["problems"]:
        print(f"  problem: {problem}")
    if run["trace_file"]:
        print(f"  trace: {run['trace_file']}")
    line = {k: run[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line, allow_nan=False))


def _append(path: Path, run: dict[str, Any], bench: dict[str, Any]) -> None:
    runs = compare.load_runs(path) if path.exists() else []
    runs.append(run)
    doc = {"runs": runs, "summary": compare.summarize(runs, bench)}
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    bench = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, help="append the run(s) to this JSON file")
    parser.add_argument("--tiny", action="store_true",
                        help="a few seconds per workload (smoke test; digests unpinned)")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help=f"must be run_seconds of BENCHMARK.json ({bench['run_seconds']})")
    args = parser.parse_args(argv)
    if args.seconds != bench["run_seconds"]:
        parser.error(f"--seconds {args.seconds:g}: the workloads are sized for "
                     f"run_seconds = {bench['run_seconds']} (use --tiny for a short run)")
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"no src/repro under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    ok = True
    for name in [args.workload] if args.workload else list(WORKLOADS):
        run = run_workload(name, seed=args.seed, trace=bool(args.trace), tiny=args.tiny,
                           bench=bench)
        if args.out is not None:
            _append(args.out, run, bench)
        _print_run(run)
        ok &= run["correct"]
    return 0 if ok else 1
