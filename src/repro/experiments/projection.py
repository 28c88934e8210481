"""Projection study: beyond the paper's 64 processors.

"Current implementations of the architecture support two levels of the
rings and hence up to 1088 processors" — a configuration the authors
never measured.  This experiment extends their methodology to it:

* **barriers** — the tournament(M) and counter barriers simulated
  (event level) on machines of 32..512 cells spanning up to 16 leaf
  rings, showing whether the paper's winner keeps its flat curve once
  most pairings cross the level-1 ring;
* **CG** — the phase-level model swept to 1088 processors, projecting
  where the serial section and ring saturation cap the speedup.

These are *projections of the model*, clearly beyond anything
validatable against the paper — the interesting output is the shape:
the barrier curves inherit a log-P slope with a level-crossing step at
every multiple of 32, and CG's speedup saturates long before 1088
(Amdahl through the serial vector section).
"""

from __future__ import annotations

from typing import Any

from repro.experiments.base import CATALOG, ExperimentResult, Plan, Point
from repro.experiments.barriers import figure4_plan
from repro.experiments.sweep import SweepRunner
from repro.kernels.cg import CgKernel
from repro.machine.config import MachineConfig

__all__ = [
    "barrier_projection_assemble", "barrier_projection_plan", "run_barrier_projection",
    "run_cg_projection",
]


def barrier_projection_plan(proc_counts: list[int], *, reps: int, seed: int) -> Plan:
    """The paper's winner and its hot-spot loser on Figure 4's machine, a P-cell KSR-1."""
    return figure4_plan(proc_counts, reps=reps, seed=seed, algorithms=("tournament(M)", "counter"))


def barrier_projection_assemble(params: dict[str, Any], values: list[Point]) -> ExperimentResult:
    """The projection table from the values of ``barrier_projection_plan(**params)``."""
    proc_counts, seed = params["proc_counts"], params["seed"]
    result = ExperimentResult(
        experiment_id="PROJ-BAR",
        title="Barrier projection beyond the measured machines (KSR-1, us)",
        headers=["P", "leaf rings", "tournament(M)", "counter", "ratio"],
    )
    seconds = iter(pt.seconds for pt in values)
    for p in proc_counts:
        tm, counter = next(seconds), next(seconds)
        n_rings = MachineConfig.ksr1(n_cells=p, seed=seed).n_rings
        result.add_row([p, n_rings, tm * 1e6, counter * 1e6, counter / tm])
        result.add_series_point("tournament(M)", p, tm)
        result.add_series_point("counter", p, counter)
    tm_series = dict(result.series["tournament(M)"])
    first, last = proc_counts[0], proc_counts[-1]
    result.notes.append(
        f"tournament(M) grows {tm_series[last] / tm_series[first]:.1f}x from "
        f"P={first} to P={last} while the hot-spot counter grows "
        f"{dict(result.series['counter'])[last] / dict(result.series['counter'])[first]:.1f}x"
    )
    return result


def run_barrier_projection(
    proc_counts: list[int] | None = None, *, reps: int | None = None, seed: int | None = None,
    runner: SweepRunner | None = None,
) -> ExperimentResult:
    """Tournament(M) vs counter past 64 cells; unset sizes take ``CATALOG["proj-barriers"]``'s."""
    return CATALOG["proj-barriers"].run(runner, proc_counts=proc_counts, reps=reps, seed=seed)


def run_cg_projection(
    proc_counts: list[int] | None = None,
    *,
    seed: int = 909,
) -> ExperimentResult:
    """CG speedup projected to the architecture's maximum (model tier)."""
    if proc_counts is None:
        proc_counts = [1, 32, 64, 128, 256, 512, 1088]
    config = MachineConfig.ksr1(n_cells=max(proc_counts), seed=seed)
    kernel = CgKernel.paper_size(config, iterations=50)
    result = ExperimentResult(
        experiment_id="PROJ-CG",
        title="CG (n=14000) projected to the 1088-processor architecture",
        headers=["P", "time (s)", "speedup", "efficiency", "serial share"],
    )
    t1 = None
    for p in proc_counts:
        run = kernel.run(p)
        if t1 is None:
            t1 = run.time_s
        speedup = t1 / run.time_s
        result.add_row(
            [
                p,
                run.time_s,
                speedup,
                speedup / p,
                run.serial_s / run.time_s,
            ]
        )
        result.add_series_point("speedup", p, speedup)
    speedups = dict(result.series["speedup"])
    best = max(speedups, key=speedups.get)
    result.notes.append(
        f"speedup peaks at ~{speedups[best]:.0f} around P={best:.0f}: the "
        "serial vector section and x-vector re-distribution cap this "
        "problem size long before 1088 processors"
    )
    result.notes.append(
        "projection only: no published measurements exist beyond 64 "
        "processors"
    )
    return result
