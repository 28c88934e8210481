"""Degraded-mode experiments: the paper's figures under injected faults.

The scalability story of the paper assumes healthy hardware.  This
module re-runs its central artifacts — the figure-3 lock workload, the
figure-4/5 barriers and the EP/CG kernel scaling — on machines carrying
a :class:`~repro.faults.FaultPlan`, quantifying how much of the clean
machine's scaling survives packet corruption, transient cell stalls,
degraded slot arbitration and dead cells.

Every point function here is module-level with picklable arguments so
a :class:`~repro.experiments.sweep.SweepRunner` can fan points across
worker processes and cache them; the :class:`FaultPlan` argument keys
the cache through its ``cache_token`` (see
:func:`repro.experiments.sweep._canonical_value`).

The simulated experiments (locks, barriers) inject faults into the
event-level machine.  The kernel experiments (EP, CG) are analytic —
they price work against :class:`~repro.ring.contention.RingLoadModel` —
so degradation enters as a model swap: a
:class:`DegradedRingLoadModel` that inflates remote latency by the
expected retry multiplier and dead-cell bypass cost, plus a
whole-run availability factor for stall windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigError
from repro.experiments.base import ExperimentResult
from repro.experiments.sweep import SweepRunner
from repro.faults import FaultInjector, FaultPlan
from repro.kernels.cg import CgKernel
from repro.kernels.ep import EpKernel
from repro.machine.api import SharedMemory
from repro.machine.config import MachineConfig, TimerConfig
from repro.machine.ksr import KsrMachine
from repro.obs import Observer, ObsCapture, ObsSpec
from repro.ring.contention import RingLoadModel
from repro.sim.process import LocalOps
from repro.sync.barriers import make_barrier
from repro.sync.locks import (
    HardwareExclusiveLock,
    LockWorkloadParams,
    TicketReadWriteLock,
    run_lock_workload,
)

__all__ = [
    "DegradedPoint",
    "DegradedRingLoadModel",
    "degraded_barrier_point",
    "degraded_cg_point",
    "degraded_ep_point",
    "degraded_lock_point",
    "fault_factors",
    "run_degraded_barriers",
    "run_degraded_kernels",
    "run_degraded_locks",
]

#: Fault rates swept by the ``run_degraded_*`` experiments (per-packet
#: corruption probability); 0 anchors the clean baseline.
DEFAULT_FAULT_RATES = (0.0, 1e-5, 1e-4, 1e-3)


@dataclass(frozen=True)
class DegradedPoint:
    """One degraded measurement: time, fault tallies, optional capture."""

    seconds: float
    #: Sorted ``(counter, value)`` pairs from
    #: :meth:`repro.faults.FaultCounters.snapshot` (empty for analytic
    #: kernel points, which inject no discrete faults).
    faults: tuple[tuple[str, float], ...]
    capture: Optional[ObsCapture] = None

    def fault(self, name: str) -> float:
        """One fault tally by name (0.0 when absent)."""
        return dict(self.faults).get(name, 0.0)


def _check_dead_cells_clear(plan: FaultPlan, n_procs: int) -> None:
    """Simulated workloads place thread ``i`` on cell ``i``."""
    blocked = [c for c in plan.dead_cells if c < n_procs]
    if blocked:
        raise ConfigError(
            f"dead cells {blocked} collide with thread placement on cells "
            f"0..{n_procs - 1}; use dead cell ids >= n_procs"
        )


def _machine_cells(plan: FaultPlan, n_procs: int) -> int:
    """Cells needed: the threads, plus room for any dead hardware."""
    need = max(2, n_procs)
    if plan.dead_cells:
        need = max(need, max(plan.dead_cells) + 1)
    return need


def degraded_lock_point(
    kind: str = "rw",
    n_procs: int = 16,
    read_fraction: float = 0.0,
    *,
    ops: int = 30,
    seed: int = 303,
    plan: FaultPlan = FaultPlan(),
    obs: ObsSpec | None = None,
) -> DegradedPoint:
    """The figure-3 lock point under ``plan``.

    Mirrors :func:`repro.experiments.locks.measure_lock` exactly —
    same config, seeding and workload — so a zero plan reproduces the
    clean measurement to the bit (pinned by the fault tests).
    With a non-trivial plan attached, every fault seam forces the
    per-event retry path, so the macro-event core never changes the
    point (pinned by the equivalence tests).
    """
    _check_dead_cells_clear(plan, n_procs)
    config = MachineConfig.ksr1(n_cells=_machine_cells(plan, n_procs), seed=seed)
    machine = KsrMachine(config)
    injector = FaultInjector(plan).attach(machine)
    observer = Observer(obs).attach(machine) if obs is not None else None
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
    faults = tuple(sorted(injector.counters.snapshot().items()))
    capture = None
    if observer is not None:
        share = f" {int(read_fraction * 100)}% read" if kind == "rw" else ""
        capture = observer.capture(
            f"F1 {kind}{share} P={n_procs}",
            kind=kind, n_procs=n_procs, read_fraction=read_fraction,
            ops=ops, seed=seed, plan=plan.describe(),
        )
        observer.detach()
    injector.detach()
    return DegradedPoint(result.total_seconds, faults, capture)


def degraded_barrier_point(
    name: str,
    n_procs: int,
    *,
    reps: int = 6,
    seed: int = 404,
    plan: FaultPlan = FaultPlan(),
    obs: ObsSpec | None = None,
) -> DegradedPoint:
    """One figure-4-style barrier point under ``plan``.

    Mirrors :func:`repro.experiments.barriers.measure_barrier` (KSR-1
    geometry, timer off, mean episode duration discarding the cold
    first episode).
    """
    if n_procs < 2:
        raise ConfigError("a barrier measurement needs at least 2 processors")
    _check_dead_cells_clear(plan, n_procs)
    n_cells = _machine_cells(plan, n_procs)
    if n_cells > 32:
        config = MachineConfig.ksr2(
            n_cells=max(n_cells, 33), seed=seed, timer=TimerConfig(enabled=False)
        )
    else:
        config = MachineConfig.ksr1(
            n_cells=n_cells, seed=seed, timer=TimerConfig(enabled=False)
        )
    machine = KsrMachine(config)
    injector = FaultInjector(plan).attach(machine)
    observer = Observer(obs).attach(machine) if obs is not None else None
    mem = SharedMemory(machine)
    barrier = make_barrier(name, mem, n_procs, use_poststore=True)
    marks: dict[int, list[float]] = {i: [] for i in range(n_procs)}

    def body(pid: int):
        for episode in range(reps):
            yield LocalOps(50)
            yield from barrier.wait(pid, episode)
            marks[pid].append(machine.engine.now)

    for i in range(n_procs):
        machine.spawn(f"bar-{i}", body(i), i)
    machine.run()
    episode_ends = [max(marks[i][e] for i in range(n_procs)) for e in range(reps)]
    episode_starts = [
        min(marks[i][e - 1] for i in range(n_procs)) for e in range(1, reps)
    ]
    durations = [end - start for start, end in zip(episode_starts, episode_ends[1:])]
    seconds = machine.config.seconds(float(np.mean(durations)))
    faults = tuple(sorted(injector.counters.snapshot().items()))
    capture = None
    if observer is not None:
        capture = observer.capture(
            f"F2 {name} barrier P={n_procs}",
            name=name, n_procs=n_procs, reps=reps, seed=seed,
            plan=plan.describe(),
        )
        observer.detach()
    injector.detach()
    return DegradedPoint(seconds, faults, capture)


# ----------------------------------------------------------------------
# Analytic kernels under degradation
# ----------------------------------------------------------------------


def fault_factors(plan: FaultPlan) -> tuple[float, float, float]:
    """``(retry_factor, extra_cycles, availability_inflation)``.

    * ``retry_factor`` — expected slot claims per delivered packet
      under per-packet corruption probability *p* with a budget of
      ``max_retries``: the truncated geometric mean
      ``(1 - p^(m+1)) / (1 - p)``.
    * ``extra_cycles`` — mean added latency per transaction: dead-cell
      bypass hops plus the mean arbitration jitter.
    * ``availability_inflation`` — whole-run slowdown from transient
      stall windows: a cell is unavailable for ``stall_rate *
      stall_cycles`` of its time (capped at 90 % so a nonsensical plan
      degrades instead of dividing by zero).
    """
    p = plan.corruption_rate
    m = plan.max_retries
    retry_factor = (1.0 - p ** (m + 1)) / (1.0 - p) if p > 0.0 else 1.0
    extra = len(plan.dead_cells) * plan.bypass_hop_cycles + plan.slot_jitter_cycles
    unavailable = min(0.9, plan.stall_rate * plan.stall_cycles)
    return retry_factor, extra, 1.0 / (1.0 - unavailable)


@dataclass(frozen=True)
class DegradedRingLoadModel(RingLoadModel):
    """A :class:`RingLoadModel` carrying a fault plan's latency tax.

    Retries multiply the effective latency (each delivery claims
    ``retry_factor`` slots on average, and the delivered packet has
    waited through its own failed attempts); bypass and jitter add a
    flat per-transaction cost.
    """

    retry_factor: float = 1.0
    extra_cycles: float = 0.0

    def effective_latency(self, n_procs: int, think_cycles: float = 0.0) -> float:
        """The clean latency scaled by retries plus the flat fault tax."""
        clean = super().effective_latency(n_procs, think_cycles)
        return clean * self.retry_factor + self.extra_cycles


def _degrade_cost_model(kernel, config: MachineConfig, plan: FaultPlan) -> float:
    """Swap the kernel's load model for a degraded one; returns the
    availability inflation to apply to the modeled time."""
    retry_factor, extra, inflation = fault_factors(plan)
    kernel.cost_model.load_model = DegradedRingLoadModel(
        config.ring, retry_factor=retry_factor, extra_cycles=extra
    )
    return inflation


def degraded_ep_point(
    n_procs: int,
    *,
    n_pairs: int = 1 << 18,
    seed: int = 505,
    plan: FaultPlan = FaultPlan(),
) -> DegradedPoint:
    """EP time on ``n_procs`` processors under ``plan`` (analytic)."""
    config = MachineConfig.ksr1(n_cells=max(2, n_procs), seed=seed)
    kernel = EpKernel(config, n_pairs=n_pairs)
    inflation = _degrade_cost_model(kernel, config, plan)
    run = kernel.run(n_procs)
    run.verify()
    return DegradedPoint(run.time_s * inflation, ())


def degraded_cg_point(
    n_procs: int,
    *,
    seed: int = 606,
    plan: FaultPlan = FaultPlan(),
) -> DegradedPoint:
    """CG time on ``n_procs`` processors under ``plan`` (analytic)."""
    config = MachineConfig.ksr1(n_cells=32, seed=seed)
    kernel = CgKernel(config)
    inflation = _degrade_cost_model(kernel, config, plan)
    run = kernel.run(n_procs)
    return DegradedPoint(run.time_s * inflation, ())


# ----------------------------------------------------------------------
# Experiment tables
# ----------------------------------------------------------------------


def _rate_header(rate: float) -> str:
    return "clean" if rate == 0.0 else f"p={rate:g}"


def _plan_for(rate: float) -> FaultPlan:
    return FaultPlan(corruption_rate=rate)


def run_degraded_locks(
    proc_counts: list[int] | None = None,
    fault_rates: list[float] | None = None,
    *,
    ops: int = 30,
    seed: int = 303,
    runner: SweepRunner | None = None,
) -> ExperimentResult:
    """F1: the figure-3 rw lock (writers only) under packet corruption."""
    if proc_counts is None:
        proc_counts = [2, 4, 8, 16]
    if fault_rates is None:
        fault_rates = list(DEFAULT_FAULT_RATES)
    if runner is None:
        runner = SweepRunner()
    result = ExperimentResult(
        experiment_id="F1",
        title=f"Lock workload under ring packet corruption, {ops} ops/processor (seconds)",
        headers=["P"] + [_rate_header(r) for r in fault_rates]
        + [f"retries {_rate_header(r)}" for r in fault_rates if r],
    )
    calls = [
        dict(kind="rw", n_procs=p, read_fraction=0.0, ops=ops, seed=seed,
             plan=_plan_for(r))
        for p in proc_counts
        for r in fault_rates
    ]
    points = runner.map(degraded_lock_point, calls)
    it = iter(points)
    for p in proc_counts:
        row_points = [next(it) for _ in fault_rates]
        row: list = [p] + [pt.seconds for pt in row_points]
        row += [
            pt.fault("retries")
            for r, pt in zip(fault_rates, row_points)
            if r
        ]
        result.add_row(row)
        for r, pt in zip(fault_rates, row_points):
            result.add_series_point(_rate_header(r), p, pt.seconds)
    clean = result.rows[-1][1]
    worst = result.rows[-1][len(fault_rates)]
    if clean > 0:
        result.notes.append(
            f"at P={proc_counts[-1]}: worst corruption rate costs "
            f"{(worst / clean - 1) * 100:.1f}% over the clean run "
            "(retries burn real slot bandwidth)"
        )
    return result


def run_degraded_barriers(
    proc_counts: list[int] | None = None,
    fault_rates: list[float] | None = None,
    *,
    algorithms: list[str] | None = None,
    reps: int = 6,
    seed: int = 404,
    runner: SweepRunner | None = None,
) -> ExperimentResult:
    """F2: figure-4 barrier episodes under packet corruption."""
    if proc_counts is None:
        proc_counts = [4, 8, 16]
    if fault_rates is None:
        fault_rates = [0.0, 1e-4, 1e-3]
    if algorithms is None:
        algorithms = ["tree", "dissemination"]
    if runner is None:
        runner = SweepRunner()
    result = ExperimentResult(
        experiment_id="F2",
        title=f"Barrier episodes under ring packet corruption, {reps} reps (seconds)",
        headers=["algorithm", "P"] + [_rate_header(r) for r in fault_rates],
    )
    calls = [
        dict(name=a, n_procs=p, reps=reps, seed=seed, plan=_plan_for(r))
        for a in algorithms
        for p in proc_counts
        for r in fault_rates
    ]
    points = iter(runner.map(degraded_barrier_point, calls))
    for a in algorithms:
        for p in proc_counts:
            row_points = [next(points) for _ in fault_rates]
            result.add_row([a, p] + [pt.seconds for pt in row_points])
            for r, pt in zip(fault_rates, row_points):
                result.add_series_point(f"{a} {_rate_header(r)}", p, pt.seconds)
    return result


def run_degraded_kernels(
    proc_counts: list[int] | None = None,
    fault_rates: list[float] | None = None,
    *,
    seed: int = 505,
    runner: SweepRunner | None = None,
) -> ExperimentResult:
    """F3: EP and CG modeled scaling under packet corruption."""
    if proc_counts is None:
        proc_counts = [1, 2, 4, 8, 16, 32]
    if fault_rates is None:
        fault_rates = list(DEFAULT_FAULT_RATES)
    if runner is None:
        runner = SweepRunner()
    result = ExperimentResult(
        experiment_id="F3",
        title="Kernel scaling under ring packet corruption (seconds)",
        headers=["kernel", "P"] + [_rate_header(r) for r in fault_rates],
    )
    ep_calls = [
        dict(n_procs=p, seed=seed, plan=_plan_for(r))
        for p in proc_counts
        for r in fault_rates
    ]
    cg_calls = [
        dict(n_procs=p, plan=_plan_for(r))
        for p in proc_counts
        for r in fault_rates
    ]
    ep_points = iter(runner.map(degraded_ep_point, ep_calls))
    cg_points = iter(runner.map(degraded_cg_point, cg_calls))
    for kernel_name, points in (("EP", ep_points), ("CG", cg_points)):
        for p in proc_counts:
            row_points = [next(points) for _ in fault_rates]
            result.add_row([kernel_name, p] + [pt.seconds for pt in row_points])
            for r, pt in zip(fault_rates, row_points):
                result.add_series_point(
                    f"{kernel_name} {_rate_header(r)}", p, pt.seconds
                )
    result.notes.append(
        "EP's degradation is pure latency tax (little communication); "
        "CG compounds it through its remote-heavy matvec phase"
    )
    return result
