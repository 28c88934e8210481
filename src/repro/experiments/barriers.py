"""Figures 4 and 5: barrier performance on the KSR-1 and KSR-2.

Each (algorithm, P) point runs a fresh machine with P bound threads
executing ``reps`` back-to-back barrier episodes separated by a small
local delay; the reported time is the mean episode duration (earliest
entry to latest exit), discarding the first episode (cold caches).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.experiments.base import (
    CATALOG, ExperimentResult, Instruments, Plan, Point, machine_cells, plan_of,
)
from repro.experiments.sweep import SweepRunner
from repro.faults import FaultPlan
from repro.machine.api import SharedMemory
from repro.machine.config import MachineConfig, TimerConfig
from repro.machine.ksr import KsrMachine
from repro.obs import ObsSpec
from repro.sim.process import LocalOps
from repro.sync.barriers import make_barrier

__all__ = [
    "measure_barrier",
    "figure4_point",
    "figure5_point",
    "figure4_assemble",
    "figure4_plan",
    "figure5_assemble",
    "figure5_plan",
    "run_figure4",
    "run_figure5",
    "DEFAULT_ALGORITHMS",
]

DEFAULT_ALGORITHMS = [
    "system",
    "counter",
    "tree",
    "tree(M)",
    "dissemination",
    "tournament",
    "tournament(M)",
    "mcs",
    "mcs(M)",
]

#: Local operations between consecutive barrier episodes.
_INTER_EPISODE_OPS = 50


def measure_barrier(
    name: str,
    n_procs: int,
    *,
    machine_config: MachineConfig | None = None,
    reps: int = CATALOG["fig4"].default["reps"],
    seed: int = CATALOG["fig4"].default["seed"],
    use_poststore: bool = True,
    plan: FaultPlan | None = None,
    obs: ObsSpec | None = None,
) -> Point:
    """Mean seconds per barrier episode for one (algorithm, P) point.

    The default machine is a timer-off KSR-1 of P cells, grown to hold
    ``plan``'s dead cells; past 32 cells it is a two-ring KSR-2 of at
    least 33.  With ``plan`` set a :class:`~repro.faults.FaultInjector`
    carries it and the point reports the injector's tallies.  With
    ``obs`` set, an :class:`~repro.obs.Observer` rides along (the
    probes are read-only, so the timing is unchanged) and the point
    carries its capture.
    """
    if n_procs < 2:
        raise ConfigError("a barrier measurement needs at least 2 processors")
    n_cells = machine_cells(n_procs, plan)
    if machine_config is None:
        timer = TimerConfig(enabled=False)
        if n_cells > 32:
            machine_config = MachineConfig.ksr2(n_cells=max(n_cells, 33), seed=seed, timer=timer)
        else:
            machine_config = MachineConfig.ksr1(n_cells=n_cells, seed=seed, timer=timer)
    if machine_config.n_cells < n_procs:
        raise ConfigError("machine too small for the requested P")
    machine = KsrMachine(machine_config)
    instruments = Instruments(machine, plan, obs)
    mem = SharedMemory(machine)
    barrier = make_barrier(name, mem, n_procs, use_poststore=use_poststore)
    marks: dict[int, list[float]] = {i: [] for i in range(n_procs)}

    def body(pid: int):
        for episode in range(reps):
            yield LocalOps(_INTER_EPISODE_OPS)
            yield from barrier.wait(pid, episode)
            marks[pid].append(machine.engine.now)

    for i in range(n_procs):
        machine.spawn(f"bar-{i}", body(i), i)
    machine.run()
    episode_ends = [max(marks[i][e] for i in range(n_procs)) for e in range(reps)]
    episode_starts = [
        min(marks[i][e - 1] for i in range(n_procs)) for e in range(1, reps)
    ]
    durations = [
        end - start for start, end in zip(episode_starts, episode_ends[1:])
    ]
    return instruments.point(
        machine.config.seconds(float(np.mean(durations))),
        f"{'' if plan is None else 'F2 '}{name} barrier P={n_procs}",
        name=name, n_procs=n_procs, reps=reps, seed=seed,
        n_cells=machine_config.n_cells,
    )


def figure4_point(
    name: str, n_procs: int, reps: int, seed: int, obs: ObsSpec | None = None
) -> Point:
    """One (algorithm, P) point of Figure 4 on a P-cell KSR-1.

    Module-level (and scalar-argued) so a :class:`SweepRunner` can ship
    it to worker processes and cache it by value.
    """
    config = MachineConfig.ksr1(n_cells=n_procs, seed=seed, timer=TimerConfig(enabled=False))
    return measure_barrier(
        name, n_procs, machine_config=config, reps=reps, seed=seed, obs=obs
    )


def figure5_point(
    name: str, n_procs: int, reps: int, seed: int, obs: ObsSpec | None = None
) -> Point:
    """One (algorithm, P) point of Figure 5 on a two-ring KSR-2."""
    config = MachineConfig.ksr2(
        n_cells=max(n_procs, 33), seed=seed, timer=TimerConfig(enabled=False)
    )
    return measure_barrier(
        name, n_procs, machine_config=config, reps=reps, seed=seed, obs=obs
    )


def figure4_plan(
    proc_counts: list[int], *, reps: int, seed: int,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS, obs: ObsSpec | None = None,
    point: Callable[..., Point] = figure4_point,
) -> Plan:
    """Figure 4's points: per P, every algorithm on a P-cell KSR-1.

    ``point=figure5_point`` puts them on Figure 5's two-ring KSR-2.
    """
    calls = [
        dict(name=name, n_procs=p, reps=reps, seed=seed) for p in proc_counts for name in algorithms
    ]
    return plan_of(point, calls, obs)


def figure5_plan(proc_counts: list[int], **params: Any) -> Plan:
    """Figure 5's points: per P, every algorithm on a two-ring KSR-2."""
    return figure4_plan(proc_counts, point=figure5_point, **params)


def figure4_assemble(
    params: dict[str, Any], values: list[Point], *, experiment_id: str = "FIG4",
    title: str = "Barrier performance on the 32-node KSR-1 (us per episode)",
) -> ExperimentResult:
    """The Figure 4 table from the values of ``figure4_plan(**params)``."""
    algorithms = list(params.get("algorithms", DEFAULT_ALGORITHMS))
    result = ExperimentResult(experiment_id=experiment_id, title=title, headers=["P"] + algorithms)
    seconds = iter(pt.seconds for pt in values)
    for p in params["proc_counts"]:
        row: list = [p]
        for name in algorithms:
            t = next(seconds)
            row.append(t * 1e6)  # microseconds, like the figures' axis scale
            result.add_series_point(name, p, t)
        result.add_row(row)
    _order_notes(result)
    return result


def figure5_assemble(params: dict[str, Any], values: list[Point]) -> ExperimentResult:
    """The Figure 5 table from the values of ``figure5_plan(**params)``."""
    result = figure4_assemble(
        params, values, experiment_id="FIG5",
        title="Barrier performance on the 64-node KSR-2 (us per episode)",
    )
    crossing = [p for p in result.column("P") if p > 32]
    if crossing and 32 in result.column("P"):
        result.notes.append(
            "points beyond P=32 span two leaf rings: the level-1 ring "
            "crossing produces the paper's 'sudden jump'"
        )
    return result


def run_figure4(
    proc_counts: list[int] | None = None, *, algorithms: list[str] | None = None,
    reps: int | None = None, seed: int | None = None, runner: SweepRunner | None = None,
    obs: ObsSpec | None = None, trace_dir: str | None = None,
) -> ExperimentResult:
    """Figure 4 (us); unset sizes take ``CATALOG["fig4"]``'s default run."""
    return CATALOG["fig4"].run(
        runner, proc_counts=proc_counts, algorithms=algorithms, reps=reps, seed=seed,
        obs=obs, trace_dir=trace_dir,
    )


def run_figure5(
    proc_counts: list[int] | None = None, *, algorithms: list[str] | None = None,
    reps: int | None = None, seed: int | None = None, runner: SweepRunner | None = None,
    obs: ObsSpec | None = None, trace_dir: str | None = None,
) -> ExperimentResult:
    """Figure 5 (us); unset sizes take ``CATALOG["fig5"]``'s default run."""
    return CATALOG["fig5"].run(
        runner, proc_counts=proc_counts, algorithms=algorithms, reps=reps, seed=seed,
        obs=obs, trace_dir=trace_dir,
    )


def _order_notes(result: ExperimentResult) -> None:
    """Summarize the orderings the paper highlights."""
    last = result.rows[-1]
    by_name = dict(zip(result.headers[1:], last[1:]))
    ranked = sorted(by_name, key=by_name.get)
    result.notes.append(
        f"at P={last[0]}: fastest -> slowest: {', '.join(ranked)}"
    )
    if by_name.get("counter") == max(by_name.values()):
        result.notes.append("counter (hot spot) is the slowest, as in the paper")
