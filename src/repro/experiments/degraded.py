"""Degraded-mode experiments: the paper's figures under injected faults.

The scalability story of the paper assumes healthy hardware.  This
module re-runs its central artifacts — the figure-3 lock workload, the
figure-4/5 barriers and the EP/CG kernel scaling — on machines carrying
a :class:`~repro.faults.FaultPlan`, quantifying how much of the clean
machine's scaling survives packet corruption, transient cell stalls,
degraded slot arbitration and dead cells.

The simulated experiments (F1 locks, F2 barriers) map the figures' own
measurers, :func:`~repro.experiments.locks.measure_lock` and
:func:`~repro.experiments.barriers.measure_barrier`, with a ``plan``
argument: the measurer attaches the fault injector and reports its
tallies on the :class:`~repro.experiments.base.Point` it returns.  The
plan keys the result cache through its ``cache_token`` (see
:func:`repro.experiments.sweep._canonical_value`).

The kernel experiments (EP, CG) are analytic — they price work against
:class:`~repro.ring.contention.RingLoadModel` — so degradation enters as
a model swap: a :class:`DegradedRingLoadModel` that inflates remote
latency by the expected retry multiplier and dead-cell bypass cost,
plus a whole-run availability factor for stall windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.experiments.barriers import measure_barrier
from repro.experiments.base import CATALOG, ExperimentResult, Plan, Point, plan_of
from repro.experiments.sweep import SweepRunner
from repro.faults import FaultPlan
from repro.faults.campaign import DEFAULT_RATES, campaign_plan
from repro.kernels.cg import CgKernel
from repro.kernels.ep import EpKernel
from repro.machine.config import MachineConfig
from repro.ring.contention import RingLoadModel

__all__ = [
    "DegradedRingLoadModel",
    "campaign_plan",  # F1's plan builder, named in the catalog as ``degraded:campaign_plan``
    "degraded_barriers_assemble",
    "degraded_barriers_plan",
    "degraded_cg_point",
    "degraded_ep_point",
    "degraded_kernels_assemble",
    "degraded_kernels_plan",
    "degraded_locks_assemble",
    "fault_factors",
    "run_degraded_barriers",
    "run_degraded_kernels",
    "run_degraded_locks",
]

#: F2's default rates and barriers (F1 and F3 sweep the campaign's
#: :data:`~repro.faults.campaign.DEFAULT_RATES`).
_BARRIER_RATES = (0.0, 1e-4, 1e-3)
_BARRIER_ALGORITHMS = ("tree", "dissemination")


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
    seed: int = CATALOG["f3"].default["seed"],
    plan: FaultPlan = FaultPlan(),
) -> Point:
    """EP time on ``n_procs`` processors under ``plan`` (analytic)."""
    config = MachineConfig.ksr1(n_cells=max(2, n_procs), seed=seed)
    kernel = EpKernel(config, n_pairs=n_pairs)
    inflation = _degrade_cost_model(kernel, config, plan)
    run = kernel.run(n_procs)
    run.verify()
    return Point(run.time_s * inflation)


def degraded_cg_point(
    n_procs: int,
    *,
    seed: int = 606,
    plan: FaultPlan = FaultPlan(),
) -> Point:
    """CG time on ``n_procs`` processors under ``plan`` (analytic)."""
    config = MachineConfig.ksr1(n_cells=32, seed=seed)
    kernel = CgKernel(config)
    inflation = _degrade_cost_model(kernel, config, plan)
    run = kernel.run(n_procs)
    return Point(run.time_s * inflation)


# ----------------------------------------------------------------------
# Experiment tables
# ----------------------------------------------------------------------


def _rate_header(rate: float) -> str:
    return "clean" if rate == 0.0 else f"p={rate:g}"


def degraded_locks_assemble(params: dict[str, Any], values: list[Point]) -> ExperimentResult:
    """The F1 table from the values of the campaign grid ``campaign_plan(**params)``."""
    proc_counts, ops = params["proc_counts"], params["ops"]
    fault_rates = params.get("fault_rates", DEFAULT_RATES)
    result = ExperimentResult(
        experiment_id="F1",
        title=f"Lock workload under ring packet corruption, {ops} ops/processor (seconds)",
        headers=["P"] + [_rate_header(r) for r in fault_rates]
        + [f"retries {_rate_header(r)}" for r in fault_rates if r],
    )
    it = iter(values)
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


def run_degraded_locks(
    proc_counts: list[int] | None = None, fault_rates: list[float] | None = None, *,
    ops: int | None = None, seed: int | None = None, runner: SweepRunner | None = None,
) -> ExperimentResult:
    """F1: the figure-3 rw lock (writers only) under packet corruption, sized by ``CATALOG``."""
    return CATALOG["f1"].run(
        runner, proc_counts=proc_counts, fault_rates=fault_rates, ops=ops, seed=seed
    )


def degraded_barriers_plan(
    proc_counts: list[int], fault_rates: Sequence[float] = _BARRIER_RATES, *,
    algorithms: Sequence[str] = _BARRIER_ALGORITHMS, reps: int, seed: int,
) -> Plan:
    """F2's points: per algorithm, per P, every fault rate."""
    calls = [
        dict(name=a, n_procs=p, reps=reps, seed=seed, plan=FaultPlan(corruption_rate=r))
        for a in algorithms
        for p in proc_counts
        for r in fault_rates
    ]
    return plan_of(measure_barrier, calls)


def degraded_barriers_assemble(params: dict[str, Any], values: list[Point]) -> ExperimentResult:
    """The F2 table from the values of ``degraded_barriers_plan(**params)``."""
    fault_rates = params.get("fault_rates", _BARRIER_RATES)
    result = ExperimentResult(
        experiment_id="F2",
        title=f"Barrier episodes under ring packet corruption, {params['reps']} reps (seconds)",
        headers=["algorithm", "P"] + [_rate_header(r) for r in fault_rates],
    )
    points = iter(values)
    for a in params.get("algorithms", _BARRIER_ALGORITHMS):
        for p in params["proc_counts"]:
            row_points = [next(points) for _ in fault_rates]
            result.add_row([a, p] + [pt.seconds for pt in row_points])
            for r, pt in zip(fault_rates, row_points):
                result.add_series_point(f"{a} {_rate_header(r)}", p, pt.seconds)
    return result


def run_degraded_barriers(
    proc_counts: list[int] | None = None, fault_rates: list[float] | None = None, *,
    algorithms: list[str] | None = None, reps: int | None = None, seed: int | None = None,
    runner: SweepRunner | None = None,
) -> ExperimentResult:
    """F2: figure-4 barrier episodes under packet corruption, sized by ``CATALOG``."""
    return CATALOG["f2"].run(
        runner, proc_counts=proc_counts, fault_rates=fault_rates, algorithms=algorithms,
        reps=reps, seed=seed,
    )


def degraded_kernels_plan(
    proc_counts: list[int], fault_rates: Sequence[float] = DEFAULT_RATES, *, seed: int
) -> Plan:
    """F3's points: EP at every (P, rate), then CG at every (P, rate)."""
    ep_calls = [
        dict(n_procs=p, seed=seed, plan=FaultPlan(corruption_rate=r))
        for p in proc_counts
        for r in fault_rates
    ]
    cg_calls = [
        dict(n_procs=p, plan=FaultPlan(corruption_rate=r))
        for p in proc_counts
        for r in fault_rates
    ]
    return plan_of(degraded_ep_point, ep_calls) + plan_of(degraded_cg_point, cg_calls)


def degraded_kernels_assemble(params: dict[str, Any], values: list[Point]) -> ExperimentResult:
    """The F3 table from the values of ``degraded_kernels_plan(**params)``."""
    fault_rates = params.get("fault_rates", DEFAULT_RATES)
    result = ExperimentResult(
        experiment_id="F3",
        title="Kernel scaling under ring packet corruption (seconds)",
        headers=["kernel", "P"] + [_rate_header(r) for r in fault_rates],
    )
    points = iter(values)
    for kernel_name in ("EP", "CG"):
        for p in params["proc_counts"]:
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


def run_degraded_kernels(
    proc_counts: list[int] | None = None, fault_rates: list[float] | None = None, *,
    seed: int | None = None, runner: SweepRunner | None = None,
) -> ExperimentResult:
    """F3: EP and CG modeled scaling under packet corruption, sized by ``CATALOG``."""
    return CATALOG["f3"].run(runner, proc_counts=proc_counts, fault_rates=fault_rates, seed=seed)
