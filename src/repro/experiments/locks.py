"""Figure 3: exclusive vs read-write lock performance (section 3.2.1).

Seven curves: the hardware exclusive lock, and the software FCFS
read-write ticket lock at read-share fractions 0 % ("writers only"),
20 %, 40 %, 60 %, 80 % and 100 % ("readers only"), each over a
processor sweep, with the paper's synthetic workload (delay 10000 local
operations, hold 3000, N operations per processor).

Timer interrupts are ON for this experiment — the unsynchronized
per-cell timer is part of the paper's explanation for the software
lock's surprising win over the hardware lock even with writers only.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.base import (
    CATALOG, ExperimentResult, Instruments, Plan, Point, machine_cells, plan_of,
)
from repro.experiments.sweep import SweepRunner
from repro.faults import FaultPlan
from repro.machine.api import SharedMemory
from repro.machine.config import MachineConfig
from repro.machine.ksr import KsrMachine
from repro.obs import ObsSpec
from repro.sync.locks import (
    HardwareExclusiveLock,
    LockWorkloadParams,
    TicketReadWriteLock,
    run_lock_workload,
)

__all__ = ["run_figure3", "figure3_assemble", "figure3_plan", "measure_lock", "READ_FRACTIONS"]

#: Read shares of Figure 3's six read-write lock curves.
READ_FRACTIONS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def measure_lock(
    kind: str,
    n_procs: int,
    read_fraction: float,
    *,
    ops: int = CATALOG["fig3"].default["ops"],
    seed: int = CATALOG["fig3"].default["seed"],
    plan: FaultPlan | None = None,
    obs: ObsSpec | None = None,
) -> Point:
    """Total seconds for one (lock kind, P, read fraction) point.

    With ``plan`` set (the F1 experiment and fault campaigns) a
    :class:`~repro.faults.FaultInjector` carries it: the machine grows
    to hold the plan's dead cells, and the point reports the injector's
    tallies.  A zero plan reproduces the clean seconds to the bit.
    With ``obs`` set, an :class:`~repro.obs.Observer` rides along (the
    probes are read-only, so the timing is unchanged) and the point
    carries its capture.
    """
    config = MachineConfig.ksr1(n_cells=machine_cells(n_procs, plan), seed=seed)
    machine = KsrMachine(config)
    instruments = Instruments(machine, plan, obs)
    mem = SharedMemory(machine)
    if kind == "hardware":
        lock = HardwareExclusiveLock(mem)
    elif kind == "rw":
        lock = TicketReadWriteLock(mem)
    else:
        raise ValueError(f"unknown lock kind {kind!r}")
    params = LockWorkloadParams(
        ops_per_processor=ops, read_fraction=read_fraction, seed=seed
    )
    result = run_lock_workload(machine, lock, params, n_threads=n_procs)
    share = f" {int(read_fraction * 100)}% read" if kind == "rw" else ""
    return instruments.point(
        result.total_seconds,
        f"{'fig3' if plan is None else 'F1'} {kind}{share} P={n_procs}",
        kind=kind, n_procs=n_procs, read_fraction=read_fraction, ops=ops, seed=seed,
    )


def figure3_plan(
    proc_counts: list[int], *, ops: int, seed: int, obs: ObsSpec | None = None
) -> Plan:
    """Figure 3's points: per P, the hardware lock, then the rw lock at each read share."""
    calls: list[dict] = []
    for p in proc_counts:
        calls.append(dict(kind="hardware", n_procs=p, read_fraction=0.0, ops=ops, seed=seed))
        for f in READ_FRACTIONS:
            calls.append(dict(kind="rw", n_procs=p, read_fraction=f, ops=ops, seed=seed))
    return plan_of(measure_lock, calls, obs)


def run_figure3(
    proc_counts: list[int] | None = None, *, ops: int | None = None, seed: int | None = None,
    runner: SweepRunner | None = None, obs: ObsSpec | None = None, trace_dir: str | None = None,
) -> ExperimentResult:
    """Figure 3's seven curves; unset sizes take ``CATALOG["fig3"]``'s default run.

    Every point is an independent, point-seeded machine, so ``runner``
    may fan them out or serve them from the result cache without
    changing a byte; ``trace_dir`` (implies ``obs``) writes one Chrome
    trace per point.
    """
    return CATALOG["fig3"].run(
        runner, proc_counts=proc_counts, ops=ops, seed=seed, obs=obs, trace_dir=trace_dir
    )


def figure3_assemble(params: dict[str, Any], values: list[Point]) -> ExperimentResult:
    """The Figure 3 table from the values of ``figure3_plan(**params)``."""
    result = ExperimentResult(
        experiment_id="FIG3",
        title=f"Lock performance, {params['ops']} operations per processor (seconds)",
        headers=["P", "exclusive"]
        + [f"rw {int(f * 100)}% read" for f in READ_FRACTIONS],
    )
    seconds = iter(pt.seconds for pt in values)
    for p in params["proc_counts"]:
        row: list = [p]
        t_excl = next(seconds)
        row.append(t_excl)
        result.add_series_point("exclusive lock", p, t_excl)
        for f in READ_FRACTIONS:
            t = next(seconds)
            row.append(t)
            result.add_series_point(f"rw {int(f * 100)}%", p, t)
        result.add_row(row)
    # headline observations
    last = result.rows[-1]
    p_last, excl, rw0, rw100 = last[0], last[1], last[2], last[-1]
    result.notes.append(
        f"at P={p_last}: readers-only rw lock is {excl / rw100:.1f}x faster "
        f"than the hardware exclusive lock (read combining)"
    )
    gap = (rw0 - excl) / excl
    if rw0 < excl:
        result.notes.append(
            "writers-only software lock beats the hardware lock — the "
            "paper's surprising result (queue survives timer interrupts; "
            "hardware retries burn ring bandwidth)"
        )
    else:
        result.notes.append(
            f"writers-only software lock within {gap * 100:.1f}% of the "
            "hardware lock (the paper measured a small software win it "
            "could not fully explain — see EXPERIMENTS.md)"
        )
    return result
