"""Common experiment plumbing, the experiment catalog and the paper's anchors.

``PAPER_ANCHORS`` collects every number the paper prints that this
reproduction compares against; EXPERIMENTS.md and several tests are
generated from / checked against this single table.

:data:`CATALOG` declares each experiment once.  What one computes is
its :data:`Plan`, the point calls :func:`run_plan` maps, and a mapped
experiment's result is assembled from the values of that plan.

:class:`Point` is the one shape of a simulated point's result, and
:class:`Instruments` the one way a point attaches a fault plan and an
observer to its machine and folds their readings into that shape.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from itertools import groupby
from typing import Any, Callable, Optional, Sequence

from repro.errors import ConfigError
from repro.experiments.sweep import SweepRunner
from repro.faults import FaultInjector, FaultPlan
from repro.obs import Observer, ObsCapture, ObsSpec, trace_sink
from repro.util.tables import Table

__all__ = [
    "CATALOG", "Experiment", "ExperimentResult", "Instruments", "PAPER_ANCHORS", "Plan",
    "Point", "fill_params", "machine_cells", "plan_of", "run_plan",
]

#: The point calls an experiment computes, in the order it maps them:
#: ``(module-level point function, keyword arguments)`` pairs.
Plan = list[tuple[Callable[..., Any], dict[str, Any]]]


def plan_of(
    func: Callable[..., Any], calls: Sequence[dict[str, Any]], obs: ObsSpec | None = None
) -> Plan:
    """``func`` over every call of ``calls``, each carrying ``obs`` when it is set."""
    return [(func, call if obs is None else {**call, "obs": obs}) for call in calls]


def fill_params(
    default: dict[str, Any], *, trace_dir: str | None = None, **params: Any
) -> dict[str, Any]:
    """``params`` over ``default``, where a ``None`` param takes its default.

    ``obs`` is kept only when set; ``trace_dir`` implies a default one.
    """
    params = {**default, **{k: v for k, v in params.items() if v is not None}}
    if trace_dir is not None and "obs" not in params:
        params["obs"] = ObsSpec()
    return params


def run_plan(
    plan: Plan, runner: SweepRunner | None = None, *, trace_dir: str | None = None,
    experiment_id: str = "",
) -> list[Any]:
    """The value of every call of ``plan``, in plan order.

    Consecutive calls of one function go to ``runner`` (a serial one
    when ``None``) as one :meth:`~repro.experiments.sweep.SweepRunner.map`,
    which computes each distinct point once.  ``trace_dir`` writes one
    Chrome trace per captured point, named after ``experiment_id``.
    """
    if runner is None:
        runner = SweepRunner()
    sink = trace_sink(experiment_id, trace_dir) if trace_dir is not None else None
    values: list[Any] = []
    for func, group in groupby(plan, key=lambda call: call[0]):
        values += runner.map(func, [kwargs for _, kwargs in group], on_result=sink)
    return values


def _resolve(path: str) -> Callable[..., Any]:
    """The function ``"module:name"`` names under :mod:`repro.experiments`."""
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(f"repro.experiments.{module}"), name)


@dataclass(frozen=True)
class Experiment:
    """One catalog entry: an experiment's id, title, sizes and functions.

    Functions are named ``"module:name"`` under :mod:`repro.experiments`
    and imported on first use, so reading the catalog loads no experiment
    module.  A *mapped* experiment names its ``plan`` builder (params to
    point calls) and its ``assemble(params, values)`` (the values of that
    plan to the result).  Any other experiment names its ``function`` and
    is one cached unit: the one-call plan ``[(function, params)]``.
    """

    key: str
    title: str
    function: str = ""
    #: Parameters of a default run; ``--full`` and ``--quick`` override some.
    default: dict[str, Any] = field(default_factory=dict)
    full: dict[str, Any] = field(default_factory=dict)
    quick: dict[str, Any] = field(default_factory=dict)
    plan: str = ""
    assemble: str = ""
    #: Fewest processors of a point, for the per-point figures that
    #: ``ksr-trace`` traces and ``ksr-serve`` serves (0: not one of them).
    min_procs: int = 0

    def params(self, *, quick: bool = False, full: bool = False) -> dict[str, Any]:
        """The experiment's parameters at one size (``quick`` wins a clash)."""
        return {**self.default, **(self.full if full else {}), **(self.quick if quick else {})}

    def plan_for(self, **params: Any) -> Plan:
        """The point calls a run with ``params`` computes."""
        if not self.plan:
            return [(_resolve(self.function), params)]
        return _resolve(self.plan)(**params)

    def result(self, params: dict[str, Any], values: list[Any]) -> Any:
        """The experiment's result from the values of ``plan_for(**params)``."""
        return _resolve(self.assemble)(params, values) if self.assemble else values[0]

    def run(
        self, runner: SweepRunner | None = None, *, trace_dir: str | None = None, **params: Any
    ) -> Any:
        """The result of a run on ``runner``, unset params taken from the default run.

        ``trace_dir`` writes one Chrome trace per point, named after the key.
        """
        params = fill_params(self.default, trace_dir=trace_dir, **params)
        plan = self.plan_for(**params)
        values = run_plan(plan, runner, trace_dir=trace_dir, experiment_id=self.key)
        return self.result(params, values)


def _paper_size(key: str, title: str, function: str) -> Experiment:
    """An analytic experiment whose ``--full`` run is the paper's problem size."""
    return Experiment(key, title, function, default={"full_size": False}, full={"full_size": True})


#: Every experiment ``ksr-experiments`` runs, by id, in its listing order.
CATALOG: dict[str, Experiment] = {entry.key: entry for entry in (
    Experiment(
        "fig2", "Figure 2: memory-hierarchy latencies",
        default={"proc_counts": [1, 2, 4, 8, 16, 24, 32], "samples": 1000, "seed": 101},
        quick={"proc_counts": [1, 2, 8, 32], "samples": 400},
        plan="latency:figure2_plan", assemble="latency:figure2_assemble", min_procs=1,
    ),
    Experiment(
        "fig3", "Figure 3: lock performance",
        default={"proc_counts": [2, 4, 8, 16, 24, 32], "ops": 100, "seed": 303},
        full={"ops": 500}, quick={"proc_counts": [2, 8, 32], "ops": 30},
        plan="locks:figure3_plan", assemble="locks:figure3_assemble", min_procs=1,
    ),
    Experiment(
        "fig4", "Figure 4: barriers on the 32-node KSR-1",
        default={"proc_counts": [2, 4, 8, 16, 24, 32], "reps": 10, "seed": 404},
        quick={"proc_counts": [4, 16, 32], "reps": 6},
        plan="barriers:figure4_plan", assemble="barriers:figure4_assemble", min_procs=2,
    ),
    Experiment(
        "fig5", "Figure 5: barriers on the 64-node KSR-2",
        default={"proc_counts": [16, 24, 32, 40, 48, 56, 64], "reps": 10, "seed": 404},
        quick={"proc_counts": [16, 32, 48, 64], "reps": 6},
        plan="barriers:figure5_plan", assemble="barriers:figure5_assemble", min_procs=2,
    ),
    Experiment("other-archs", "Section 3.2.3: Symmetry/Butterfly comparison",
               "other_archs:run_other_archs"),
    Experiment(
        "ep", "EP scaling (section 3.3)", "ep_scaling:run_ep_scaling",
        default={"n_pairs": 1 << 18}, quick={"n_pairs": 1 << 16},
    ),
    _paper_size("tab1", "Table 1: CG scaling", "cg_scaling:run_table1"),
    _paper_size("cg-poststore", "CG poststore study (section 3.3.1)",
                "cg_scaling:run_cg_poststore"),
    _paper_size("tab2", "Table 2: IS scaling", "is_scaling:run_table2"),
    _paper_size("fig8", "Figure 8: CG and IS speedup curves", "figure8:run_figure8"),
    _paper_size("tab3", "Table 3: SP scaling", "sp_scaling:run_table3"),
    _paper_size("tab4", "Table 4: SP optimization ladder", "sp_scaling:run_table4"),
    _paper_size("sp-poststore", "SP poststore study (section 3.3.3)",
                "sp_scaling:run_sp_poststore"),
    _paper_size("cg-formats", "CG data-structure study: CSR vs original CSC",
                "cg_formats:run_format_comparison"),
    _paper_size("future", "Section 4's proposed features, implemented",
                "future_features:run_future_features"),
    Experiment(
        "proj-barriers", "Projection: barriers beyond 64 processors",
        default={"proc_counts": [32, 64, 128, 256], "reps": 6, "seed": 909},
        quick={"proc_counts": [32, 64, 128]}, plan="projection:barrier_projection_plan",
        assemble="projection:barrier_projection_assemble",
    ),
    Experiment("proj-cg", "Projection: CG to the 1088-processor maximum",
               "projection:run_cg_projection"),
    Experiment(
        "f1", "Degraded mode: lock workload under fault injection",
        default={"proc_counts": [2, 4, 8, 16], "ops": 30, "seed": 303},
        quick={"proc_counts": [2, 8], "ops": 10},
        plan="degraded:campaign_plan", assemble="degraded:degraded_locks_assemble",
    ),
    Experiment(
        "f2", "Degraded mode: barriers under fault injection",
        default={"proc_counts": [4, 8, 16], "reps": 6, "seed": 404},
        quick={"proc_counts": [4, 8], "reps": 4},
        plan="degraded:degraded_barriers_plan", assemble="degraded:degraded_barriers_assemble",
    ),
    Experiment(
        "f3", "Degraded mode: EP/CG scaling under fault injection",
        default={"proc_counts": [1, 2, 4, 8, 16, 32], "seed": 505},
        quick={"proc_counts": [1, 4, 16]},
        plan="degraded:degraded_kernels_plan", assemble="degraded:degraded_kernels_assemble",
    ),
)}


@dataclass(frozen=True)
class Point:
    """One point's result: time, fault tallies and an optional capture."""

    seconds: float
    #: Sorted ``(counter, value)`` pairs from
    #: :meth:`repro.faults.FaultCounters.snapshot` (empty for a point
    #: run without a fault plan, and for analytic kernel points).
    faults: tuple[tuple[str, float], ...] = ()
    #: What an :class:`~repro.obs.Observer` saw (``None`` unless the
    #: point ran with ``obs``).
    capture: Optional[ObsCapture] = None

    def fault(self, name: str) -> float:
        """One fault tally by name (0.0 when absent)."""
        return dict(self.faults).get(name, 0.0)


def machine_cells(n_procs: int, plan: FaultPlan | None = None) -> int:
    """Cells a point placing thread ``i`` on cell ``i`` needs.

    At least two, and room for the plan's dead cells, none of which may
    sit under a thread.
    """
    need = max(2, n_procs)
    if plan is None or not plan.dead_cells:
        return need
    blocked = [c for c in plan.dead_cells if c < n_procs]
    if blocked:
        raise ConfigError(
            f"dead cells {blocked} collide with thread placement on cells "
            f"0..{n_procs - 1}; use dead cell ids >= n_procs"
        )
    return max(need, max(plan.dead_cells) + 1)


class Instruments:
    """A point's optional fault injector and observer on one machine.

    The injector attaches first, so the observer wires its fault probe.
    Without a plan no injector attaches at all: even a zero-plan
    injector sets ``machine.fault_injector``, which adds that probe to
    the capture.
    """

    def __init__(self, machine: Any, plan: FaultPlan | None, obs: ObsSpec | None):
        self.plan = plan
        self.injector = FaultInjector(plan).attach(machine) if plan is not None else None
        self.observer = Observer(obs).attach(machine) if obs is not None else None

    def point(self, seconds: float, label: str, **meta: Any) -> Point:
        """Detach both and fold their readings into one :class:`Point`.

        ``label`` and ``meta`` name the capture; a plan's description
        joins the meta.
        """
        faults: tuple[tuple[str, float], ...] = ()
        if self.injector is not None:
            faults = tuple(sorted(self.injector.counters.snapshot().items()))
            meta["plan"] = self.plan.describe()
        capture = None
        if self.observer is not None:
            capture = self.observer.capture(label, **meta)
            self.observer.detach()
        if self.injector is not None:
            self.injector.detach()
        return Point(seconds, faults, capture)


@dataclass
class ExperimentResult:
    """One reproduced artifact (a table or one figure's series)."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: For figure-style results: series name -> [(x, y), ...]
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)

    def add_row(self, values: Sequence[Any]) -> None:
        """Append one table row."""
        self.rows.append(list(values))

    def add_series_point(self, name: str, x: float, y: float) -> None:
        """Append one figure point."""
        self.series.setdefault(name, []).append((x, y))

    def doc(self) -> dict[str, Any]:
        """The table as a JSON-safe document."""
        return {
            "experiment_id": self.experiment_id, "title": self.title,
            "headers": self.headers, "rows": self.rows, "notes": self.notes,
        }

    def render(self) -> str:
        """Plain-text report section."""
        table = Table(self.headers, title=f"{self.experiment_id}: {self.title}")
        for row in self.rows:
            table.add_row(row)
        parts = [table.render()]
        if self.notes:
            parts.append("")
            parts.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(parts)

    def column(self, header: str) -> list[Any]:
        """All values of one column (test convenience)."""
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]


#: Published values (paper tables, figure call-outs and in-text claims).
PAPER_ANCHORS: dict[str, Any] = {
    # Section 2/3.1: latencies (cycles @ 20 MHz)
    "subcache_hit_cycles": 2,
    "local_cache_hit_cycles": 18,
    "remote_latency_cycles": 175,
    "ring_latency_rise_at_32": 0.08,  # "about 8% for 32 processors"
    "block_alloc_overhead": 0.50,  # +50% local-cache access time
    "page_alloc_overhead": 0.60,  # +60% remote access time
    # Table 1: CG (n=14000, nnz=2,030,000)
    "cg_times": {1: 1638.85970, 2: 930.47700, 4: 565.22150,
                 8: 259.55210, 16: 126.51990, 32: 72.00830},
    "cg_speedups": {2: 1.76131, 4: 2.89950, 8: 6.31418,
                    16: 12.95340, 32: 22.75930},
    "cg_serial_fractions": {2: 0.135518, 4: 0.126516, 8: 0.038141,
                            16: 0.015680, 32: 0.013097},
    # Table 2: IS (2^23 keys)
    "is_times": {1: 692.95492, 2: 351.03866, 4: 180.95085, 8: 95.79978,
                 16: 54.80835, 30: 36.56198, 32: 36.63433},
    "is_speedups": {2: 1.97401, 4: 3.82952, 8: 7.23337, 16: 12.64320,
                    30: 18.95290, 32: 18.91550},
    "is_serial_fractions": {2: 0.013166, 4: 0.014839, 8: 0.015141,
                            16: 0.017700, 30: 0.020099, 32: 0.022314},
    # Table 3: SP (64^3), seconds per iteration
    "sp_times_per_iter": {1: 39.02, 2: 19.48, 4: 10.02, 8: 5.04,
                          16: 2.55, 31: 1.40},
    "sp_speedups": {2: 2.0, 4: 3.9, 8: 7.7, 16: 15.3, 31: 27.8},
    # Table 4: SP optimization ladder at 30 processors
    "sp_ladder": {"base": 2.54, "padding": 2.14, "prefetch": 1.89},
    # EP (in text)
    "ep_mflops_per_cell": 11.0,
    "ep_peak_mflops": 40.0,
    # CG poststore (in text): ~3% at 16 processors, more below, less above
    "cg_poststore_gain_at_16": 0.03,
    # Barriers (Figure 4 call-outs / orderings)
    "barrier_orderings_ksr1": [
        # (faster, slower) pairs the paper establishes at 32 processors
        ("tournament(M)", "tournament"),
        ("tournament(M)", "dissemination"),
        ("tournament(M)", "counter"),
        ("tree(M)", "tree"),
        ("mcs(M)", "mcs"),
        ("dissemination", "counter"),
        ("tree", "counter"),
        ("tournament", "counter"),
        ("mcs", "counter"),
    ],
}
