"""Common experiment-result plumbing and the paper's published anchors.

``PAPER_ANCHORS`` collects every number the paper prints that this
reproduction compares against; EXPERIMENTS.md and several tests are
generated from / checked against this single table.

:class:`Point` is the one shape of a simulated point's result, and
:class:`Instruments` the one way a point attaches a fault plan and an
observer to its machine and folds their readings into that shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.errors import ConfigError
from repro.faults import FaultInjector, FaultPlan
from repro.obs import Observer, ObsCapture, ObsSpec
from repro.util.tables import Table

__all__ = [
    "ExperimentResult",
    "Instruments",
    "MIN_PROCS",
    "PAPER_ANCHORS",
    "Point",
    "machine_cells",
]

#: Fewest processors each traced or served subject can run: a barrier
#: needs two participants and a campaign measures lock contention, which
#: needs two processors; a latency or lock point runs on one.  The most
#: is one per cell of the largest machine,
#: :data:`~repro.machine.config.MAX_CELLS`.
MIN_PROCS = {"fig2": 1, "fig3": 1, "fig4": 2, "fig5": 2, "campaign": 2}


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
