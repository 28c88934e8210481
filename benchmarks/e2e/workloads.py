"""The four pinned workloads and how a seed turns into their inputs.

Simulator workloads are a fixed list of experiments rendered a fixed
number of *passes*; the workload seed is added to each experiment's
own default seed, so seed 0 reproduces the paper runs of
``ksr-experiments``.  Service workloads are a traffic mix of ``point``
requests whose keys and arrival order come from ``random.Random(seed)``.

Every run does the same amount of work, whatever the host's speed: a
simulator workload makes a fixed number of passes, and a service
workload serves a fixed number of batch passes, then an open loop of
``RATE`` requests per second for ``run_seconds`` (``BENCHMARK.json``)
less the closed loop (see README.md).  This module also holds what both
workload children share: their arguments and the estimator over
repeats.
"""

from __future__ import annotations

import argparse
import json
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Sequence, Union

__all__ = ["DEFAULT_SEED", "SETUP_SPAWNS", "RATE", "CLIENTS", "TINY_SECONDS", "Experiment",
           "SimWorkload", "ServeWorkload", "WORKLOADS", "window", "child_args",
           "median_by_position"]

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
DEFAULT_SEED = 0
#: Fresh interpreters or servers started per run to time set-up.
SETUP_SPAWNS = 3
#: Open-loop arrival rate (requests per second) of the service workloads.
RATE = 12.0
#: Generator threads, each with one keep-alive connection.
CLIENTS = 2
#: The window of a ``--tiny`` smoke run (s).
TINY_SECONDS = 2.0


def window(tiny: bool) -> float:
    """The window of a run: :data:`TINY_SECONDS` for ``--tiny``, else
    ``run_seconds`` of BENCHMARK.json, which every full run is sized for."""
    return TINY_SECONDS if tiny else float(json.loads(BENCHMARK.read_text())["run_seconds"])


def child_args(argv: list[str] | None, description: str) -> argparse.Namespace:
    """Arguments of a workload child, as :mod:`benchmarks.e2e.cli` passes them."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    return parser.parse_args(argv)


def median_by_position(repeats: Sequence[Sequence[float]]) -> list[float]:
    """Each position's median over repeats of the same sequence of work.

    Every repeat must hold the same number of timings.
    """
    if len({len(one) for one in repeats}) != 1:
        raise ValueError(f"repeats timed different amounts of work: "
                         f"{sorted({len(one) for one in repeats})}")
    return [statistics.median(times) for times in zip(*repeats)]


@dataclass(frozen=True)
class Experiment:
    """One experiment call: ``module.function(**kwargs)``.

    ``seed`` is the experiment's default seed (``None`` when it takes
    none); ``runner_arg`` says whether it takes ``runner=`` itself or
    runs as a single point through ``runner.run``, as the CLI does.
    """

    exp_id: str
    module: str
    function: str
    kwargs: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None
    runner_arg: bool = False

    def call_kwargs(self, workload_seed: int) -> dict[str, Any]:
        kwargs = dict(self.kwargs)
        if self.seed is not None:
            kwargs["seed"] = self.seed + workload_seed
        return kwargs


@dataclass(frozen=True)
class SimWorkload:
    """Experiments rendered serially on a cold sweep cache, ``passes`` times."""

    name: str
    experiments: tuple[Experiment, ...]
    #: Cold passes of a plain run; ``wall_s`` is their median.
    passes: int
    tiny: tuple[Experiment, ...]
    kind = "sim"

    def sized(self, tiny: bool) -> tuple[tuple[Experiment, ...], int]:
        """The experiments and pass count of a run (``--tiny``: two passes)."""
        return (self.tiny, 2) if tiny else (self.experiments, self.passes)


@dataclass(frozen=True)
class ServeWorkload:
    """A ``ksr-serve`` traffic mix of ``point`` requests."""

    name: str
    #: ``--fleet N`` workers, or ``None`` for the single daemon.
    fleet: int | None
    #: Distinct keys requested first (the cold batch) and repeated later.
    warm_keys: int
    #: Share of open- and closed-loop requests that use a never-seen key.
    fresh_share: float
    #: Point parameters every request carries besides its ``seed``.
    point: dict[str, Any]
    #: Requests of one batch pass (``wall_s``), served one at a time.
    batch: int = 32
    #: Batch passes; each position is taken at its median over them.
    batch_passes: int = 8
    closed_s: float = 5.0
    #: Served keys re-executed inline to check the payloads.
    verify_keys: int = 20
    kind = "serve"

    def sized(self, tiny: bool) -> "ServeWorkload":
        """The ``--tiny`` variant: a few keys and a one-second closed loop."""
        if not tiny:
            return self
        return replace(self, warm_keys=8, batch=8, batch_passes=2, closed_s=1.0,
                       verify_keys=4)


_LAT = "repro.experiments.latency"
_LOCKS = "repro.experiments.locks"
_BAR = "repro.experiments.barriers"
_DEG = "repro.experiments.degraded"
_PROJ = "repro.experiments.projection"
_SP = "repro.experiments.sp_scaling"

SIM_FIG2 = SimWorkload(
    "sim-fig2",
    experiments=(
        Experiment("fig2", _LAT, "run_figure2",
                   {"proc_counts": [1, 8], "samples": 200}, 101, True),
    ),
    passes=1,
    tiny=(Experiment("fig2", _LAT, "run_figure2",
                     {"proc_counts": [1], "samples": 50}, 101, True),),
)

SIM_REST = SimWorkload(
    "sim-rest",
    experiments=(
        Experiment("fig3", _LOCKS, "run_figure3", {"proc_counts": [2, 8], "ops": 10}, 303, True),
        Experiment("fig4", _BAR, "run_figure4", {"proc_counts": [4, 16], "reps": 4}, 404, True),
        Experiment("fig5", _BAR, "run_figure5", {"proc_counts": [16, 32], "reps": 4}, 404, True),
        Experiment("other-archs", "repro.experiments.other_archs", "run_other_archs"),
        Experiment("ep", "repro.experiments.ep_scaling", "run_ep_scaling",
                   {"n_pairs": 1 << 16}, 505),
        Experiment("tab1", "repro.experiments.cg_scaling", "run_table1", {}, 606),
        Experiment("cg-poststore", "repro.experiments.cg_scaling", "run_cg_poststore",
                   {}, 606),
        Experiment("tab2", "repro.experiments.is_scaling", "run_table2", {}, 707),
        Experiment("fig8", "repro.experiments.figure8", "run_figure8",
                   {"proc_counts": [1, 4]}, 314),
        Experiment("tab3", _SP, "run_table3", {}, 808),
        Experiment("tab4", _SP, "run_table4", {}, 808),
        Experiment("sp-poststore", _SP, "run_sp_poststore", {}, 808),
        Experiment("cg-formats", "repro.experiments.cg_formats", "run_format_comparison",
                   {"proc_counts": [1, 4]}, 111),
        Experiment("future", "repro.experiments.future_features", "run_future_features",
                   {}, 212),
        Experiment("proj-barriers", _PROJ, "run_barrier_projection",
                   {"proc_counts": [32, 64], "reps": 4}, 909),
        Experiment("f1", _DEG, "run_degraded_locks", {"proc_counts": [2], "ops": 10}, 303, True),
        Experiment("f2", _DEG, "run_degraded_barriers", {"proc_counts": [4], "reps": 4}, 404,
                   True),
        Experiment("f3", _DEG, "run_degraded_kernels", {"proc_counts": [4]}, 505, True),
    ),
    passes=3,
    tiny=(
        Experiment("fig3", _LOCKS, "run_figure3", {"proc_counts": [2], "ops": 5}, 303, True),
        Experiment("tab4", _SP, "run_table4", {}, 808),
        Experiment("f2", _DEG, "run_degraded_barriers",
                   {"proc_counts": [4], "reps": 2}, 404, True),
    ),
)

# Both service workloads request cheap points (about 2 ms of simulation):
# a default point computes for 20-30 ms in the server, holding the GIL
# while concurrent hits wait, which made the hit latency depend on how
# requests happened to overlap.
SERVE_WARM = ServeWorkload(
    "serve-warm", fleet=None, warm_keys=64, fresh_share=0.10,
    point={"n_procs": 2, "ops": 2},
)

FLEET_COLD = ServeWorkload(
    "fleet-cold", fleet=2, warm_keys=32, fresh_share=0.80,
    point={"n_procs": 2, "ops": 2},
)

WORKLOADS: dict[str, Union[SimWorkload, ServeWorkload]] = {
    w.name: w for w in (SIM_FIG2, SIM_REST, SERVE_WARM, FLEET_COLD)
}
