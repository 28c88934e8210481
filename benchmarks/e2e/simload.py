"""Simulator workload child: render the experiments pass after pass.

Run by :mod:`benchmarks.e2e.cli` in a fresh interpreter::

    python -m benchmarks.e2e.simload --workload sim-fig2 --seed 0 \\
        --trace 0 --work DIR --result FILE [--tiny]

Every pass renders every experiment of the workload serially against
its own empty ``ResultCache``, the default path of ``ksr-experiments``.
A plain run makes the workload's fixed number of passes, then starts
``SETUP_SPAWNS`` fresh interpreters to time set-up, while a
:class:`~benchmarks.e2e.hostspeed.HostSpeed` sampler runs beside it.
A traced run makes one plain pass, one pass under cProfile with spans
and machine counters, and one re-render against the traced pass's
now-warm cache.

The work of a pass is deterministic and runs on one thread, so its time
varies only with the host.  A plain run therefore pins itself to one
vCPU with a host-speed sampler beside it, times its own CPU seconds,
which exclude the time the hypervisor holds the vCPU, and scales them to
the nominal host's hardware (see :mod:`benchmarks.e2e.hostspeed`):
``wall_s`` is the median scaled pass time, and the point latencies are
each sweep point's median scaled time over the passes.  Set-up, which
spans processes, is scaled wall time.  The report keeps the unscaled
wall times.

Every rendered table is hashed; a table whose SHA-256 differs from the
pinned digest (``digests.json``) or from the first pass is a failed
operation.
"""

from __future__ import annotations

import cProfile
import hashlib
import importlib
import itertools
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any

import repro
from repro.experiments.sweep import ResultCache, SweepRunner, code_version
from repro.obs import validate_chrome_trace

from benchmarks.e2e.hostspeed import HostSpeed
from benchmarks.e2e.layers import SERVICE_LAYERS, SIM_LAYERS, count_machine_runs, fold_profile
from benchmarks.e2e.loadgen import percentile
from benchmarks.e2e.spans import Recorder, chrome_trace, layer_summary
from benchmarks.e2e.workloads import (
    SETUP_SPAWNS, WORKLOADS, Experiment, child_args, median_by_position,
)

__all__ = ["TimedRunner", "run_pass", "check", "main"]

DIGESTS = Path(__file__).with_name("digests.json")
#: Service layers a simulator run has: the sweep cache and point compute.
SIM_SERVICE_LAYERS = ("cache_read", "cache_write", "compute")


class TimedRunner(SweepRunner):
    """Serial ``SweepRunner`` that times every point it computes."""

    def __init__(self, cache: Any, recorder: Recorder | None = None):
        super().__init__(jobs=1, cache=cache)
        self.recorder = recorder
        #: ``(start, end, cpu_s)`` of every point computed, in order.
        self.points: list[tuple[float, float, float]] = []

    def _execute(self, func, calls):  # type: ignore[override]
        values = []
        for kwargs in calls:
            span = self.recorder.open("compute") if self.recorder else None
            start, cpu = time.perf_counter(), time.process_time()
            values.append(func(**kwargs))
            self.points.append((start, time.perf_counter(), time.process_time() - cpu))
            if span is not None:
                self.recorder.close(span)
        return values


def prepare(experiments: tuple[Experiment, ...]) -> None:
    """Import the experiment modules and hash the code: the workload's set-up.

    Done before any timed pass, so passes time rendering only;
    :func:`measure_setup` times the same steps in fresh interpreters.
    """
    for exp in experiments:
        importlib.import_module(exp.module)
    code_version()


def measure_setup(experiments: tuple[Experiment, ...]) -> list[tuple[float, float]]:
    """``(start, end)`` of fresh interpreters each doing :func:`prepare`'s work."""
    modules = ", ".join(sorted({exp.module for exp in experiments}))
    code = (f"import {modules}; from repro.experiments.sweep import code_version; "
            "code_version()")
    spans = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
        spans.append((start, time.perf_counter()))
    return spans


def render(exp: Experiment, seed: int, runner: TimedRunner) -> str:
    """One experiment's rendered table."""
    func = getattr(importlib.import_module(exp.module), exp.function)
    kwargs = exp.call_kwargs(seed)
    result = func(runner=runner, **kwargs) if exp.runner_arg else runner.run(func, **kwargs)
    return result.render()


def run_pass(experiments: tuple[Experiment, ...], seed: int, cache_dir: Path,
             recorder: Recorder | None = None) -> dict[str, Any]:
    """Render every experiment once; returns its span, digests and point spans."""
    runner = TimedRunner(ResultCache(cache_dir), recorder)
    digests: dict[str, str] = {}
    exp_s: dict[str, float] = {}
    start, cpu = time.perf_counter(), time.process_time()
    for exp in experiments:
        span = recorder.open(f"experiment {exp.exp_id}") if recorder else None
        t0 = time.perf_counter()
        try:
            digests[exp.exp_id] = hashlib.sha256(render(exp, seed, runner).encode()).hexdigest()
        except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
            traceback.print_exc()
            digests[exp.exp_id] = f"error {type(exc).__name__}: {exc}"
        exp_s[exp.exp_id] = time.perf_counter() - t0
        if span is not None:
            recorder.close(span)
    cache = runner.cache
    end = time.perf_counter()
    return {
        "start": start,
        "end": end,
        "wall_s": end - start,
        "cpu_s": time.process_time() - cpu,
        "digests": digests,
        "exp_s": exp_s,
        "points": runner.points,
        "cache": {"hits": cache.hits, "misses": cache.misses},
    }


def check(passes: list[dict[str, Any]],
          pinned: dict[str, str] | None) -> tuple[int, int, list[str]]:
    """Count operations and failures: each digest vs the pin and the first pass."""
    attempted, problems = 0, []
    reference = pinned or passes[0]["digests"]
    for number, one in enumerate(passes):
        for exp_id, digest in one["digests"].items():
            attempted += 1
            if digest != reference.get(exp_id) or digest != passes[0]["digests"][exp_id]:
                shown = digest if digest.startswith("error") else digest[:16]
                problems.append(f"pass {number}: {exp_id} rendered {shown}, "
                                f"expected {str(reference.get(exp_id))[:16]}")
    return attempted, len(problems), problems


def _traced_pass(experiments, seed: int, cache_dir: Path) -> tuple[dict, Recorder, dict, dict]:
    """One pass under cProfile, with cache spans and machine counters."""
    recorder = Recorder()
    originals = {name: getattr(ResultCache, name) for name in ("load", "store")}
    recorder.wrap(ResultCache, "load", "cache_read")
    recorder.wrap(ResultCache, "store", "cache_write")
    counters: dict[str, float] = {}
    restore = count_machine_runs(counters)
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        span = recorder.open("pass")
        one = run_pass(experiments, seed, cache_dir, recorder)
        recorder.close(span)
        profiler.disable()
    finally:
        restore()
        for name, func in originals.items():
            setattr(ResultCache, name, func)
    profile = fold_profile(pstats.Stats(profiler), Path(repro.__file__).parent)
    return one, recorder, counters, profile


def main(argv: list[str] | None = None) -> int:
    args = child_args(argv, __doc__.splitlines()[0])
    experiments, n_passes = WORKLOADS[args.workload].sized(args.tiny)
    pins = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    pinned = None if args.tiny else pins.get(args.workload, {}).get(str(args.seed))
    cache_dirs = (args.work / f"cache-{i}" for i in itertools.count())
    out: dict[str, Any] = {"workload": args.workload, "seed": args.seed}
    prepare(experiments)

    if not args.trace:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        with HostSpeed(args.work, cpu) as host:
            passes = [run_pass(experiments, args.seed, next(cache_dirs))
                      for _ in range(n_passes)]
            spawns = measure_setup(experiments)
        # Cold passes compute the same points in the same order, so the
        # i-th point of every pass is the same computation.
        points = median_by_position([[host.scaled_cpu(cpu, start, end)
                                      for start, end, cpu in one["points"]]
                                     for one in passes])
        wall_s = statistics.median(host.scaled_cpu(one["cpu_s"], one["start"], one["end"])
                                   for one in passes)
        out["metrics"] = {
            "wall_s": wall_s,
            "setup_s": statistics.median(host.scaled(*spawn) for spawn in spawns),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "lat_p50_ms": percentile(points, 0.5) * 1e3,
            "lat_p95_ms": percentile(points, 0.95) * 1e3,
            "sat_rps": len(points) / wall_s,
        }
        out["report"] = {
            "passes": len(passes),
            "points_per_pass": len(points),
            "unscaled.wall_s": statistics.median(one["wall_s"] for one in passes),
            "unscaled.setup_s": statistics.median(end - start for start, end in spawns),
            **host.report(),
            **{f"exp.{k}.s": statistics.median(p["exp_s"][k] for p in passes)
               for k in passes[0]["exp_s"]},
        }
    else:
        plain = run_pass(experiments, args.seed, next(cache_dirs))
        traced_dir = next(cache_dirs)
        traced, recorder, counters, profile = _traced_pass(experiments, args.seed, traced_dir)
        warm = run_pass(experiments, args.seed, traced_dir)
        passes = [plain, traced, warm]
        events = counters["sim.events"]
        total_self = sum(layer["self_s"] for layer in profile.values()) or 1.0
        spans = recorder.snapshot()
        layer_stats = layer_summary(spans, SERVICE_LAYERS)
        lookups = warm["cache"]["hits"] + warm["cache"]["misses"]
        out["metrics"] = {
            **counters,
            "sim.host_us_per_event": plain["wall_s"] / events * 1e6 if events else 0.0,
            **{f"{name}.calls": profile[name]["calls"] for name in SIM_LAYERS},
            **{f"{name}.self_pct": 100 * profile[name]["self_s"] / total_self
               for name in SIM_LAYERS},
            **{f"{name}.count": layer_stats[name]["count"] for name in SERVICE_LAYERS},
            **{f"{name}.busy_pct": 100 * layer_stats[name]["busy_s"] / traced["wall_s"]
               for name in SERVICE_LAYERS},
            **{f"{name}.p50_ms": layer_stats[name]["p50_ms"] for name in SIM_SERVICE_LAYERS},
            "cache.hit_ratio": warm["cache"]["hits"] / lookups if lookups else 0.0,
            # No requests: nothing to coalesce, no replicas, nothing refused.
            "coalesce.ratio": 0.0,
            "fleet.remote_hit_ratio": 0.0,
            "refused.count": 0,
            "sweep.warm_s": warm["wall_s"],
            "trace.overhead_x": traced["wall_s"] / plain["wall_s"],
        }
        out["report"] = {
            **{f"{name}.self_s": profile[name]["self_s"] for name in SIM_LAYERS},
            "wall_s.plain": plain["wall_s"],
            "wall_s.traced": traced["wall_s"],
        }
        doc = chrome_trace(spans, pid=0, label=f"{args.workload} seed {args.seed}",
                           other={"profile": profile, "counters": counters})
        # Validate the document as written, after the JSON round trip.
        out["trace_problems"] = validate_chrome_trace(json.loads(json.dumps(doc)))[:20]
        if args.trace_file is not None:
            args.trace_file.parent.mkdir(parents=True, exist_ok=True)
            args.trace_file.write_text(json.dumps(doc))
            out["trace_file"] = str(args.trace_file)
    attempted, failed, problems = check(passes, pinned)
    out.update(attempted=attempted, failed=failed, problems=problems[:20],
               digests=passes[0]["digests"])
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
