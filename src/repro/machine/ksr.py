"""Assembly of a complete simulated KSR machine.

``KsrMachine`` wires the engine, the ring hierarchy, the coherence
protocol and one :class:`~repro.machine.cell.Cell` per processor, and
offers the workload-facing surface: spawn threads, run to completion,
read the clock and the performance monitors.

>>> from repro.machine import MachineConfig, KsrMachine
>>> from repro.sim import Compute
>>> m = KsrMachine(MachineConfig.ksr1(n_cells=2))
>>> def body():
...     yield Compute(100)
>>> p = m.spawn("worker", body(), cell_id=0)
>>> m.run()
>>> p.elapsed
100.0
"""

from __future__ import annotations

import pickle
from typing import Any, Generator, Optional

from repro.coherence.protocol import CoherenceProtocol
from repro.errors import DeadlockError, SimulationError
from repro.machine.cell import Cell
from repro.machine.config import MachineConfig
from repro.memory.perfmon import PerfMonitor
from repro.ring.hierarchy import RingHierarchy
from repro.sim.engine import Engine
from repro.sim.process import Op, Process
from repro.sim.tracing import Trace
from repro.util.rng import SeedStream

__all__ = ["KsrMachine"]


class KsrMachine:
    """A runnable KSR-1/KSR-2 model.

    Parameters
    ----------
    config:
        Machine description (see :meth:`MachineConfig.ksr1` /
        :meth:`MachineConfig.ksr2`).
    trace:
        Optional op-level :class:`~repro.sim.tracing.Trace` to attach
        to every cell.
    """

    #: Safety valve: a run firing more events than this raises instead
    #: of spinning forever on livelocked hardware retries.
    DEFAULT_MAX_EVENTS = 200_000_000

    def __init__(self, config: MachineConfig, trace: Optional[Trace] = None):
        self.config = config
        self.seeds = SeedStream(config.seed)
        self.engine = Engine()
        self.hierarchy = RingHierarchy(config, self.seeds)
        self.protocol = CoherenceProtocol(config, self.engine, self.hierarchy)
        self.trace = trace
        self.cells = [
            Cell(i, config, self.engine, self.protocol, self.seeds, trace)
            for i in range(config.n_cells)
        ]
        for cell in self.cells:
            self.protocol.register_cell(cell)
        self.processes: list[Process] = []
        #: The attached :class:`repro.faults.FaultInjector`, or ``None``.
        #: Set by :meth:`FaultInjector.attach`; observers read it to
        #: wire the fault probe and snapshot fault counters.
        self.fault_injector = None

    # ------------------------------------------------------------------
    # Workload surface
    # ------------------------------------------------------------------

    def spawn(
        self,
        name: str,
        body: Generator[Op, Any, Any],
        cell_id: int,
    ) -> Process:
        """Bind a thread generator to a cell and start it."""
        if not 0 <= cell_id < self.config.n_cells:
            raise SimulationError(
                f"cell {cell_id} out of range on a {self.config.n_cells}-cell machine"
            )
        injector = self.fault_injector
        if injector is not None and cell_id in injector.plan.dead_cells:
            raise SimulationError(
                f"cell {cell_id} is dead under the attached fault plan; "
                "place threads on live cells only"
            )
        process = Process(name=name, body=body, cell_id=cell_id)
        self.processes.append(process)
        self.cells[cell_id].start(process)
        return process

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run the machine; raises :class:`DeadlockError` if threads
        remain blocked when the event queue drains."""
        if max_events is None:
            max_events = self.DEFAULT_MAX_EVENTS
        self.engine.run(until=until, max_events=max_events)
        if until is not None:
            return
        if self.engine.pending and self.engine.events_fired >= max_events:
            raise SimulationError(
                f"run exceeded {max_events} events; "
                f"likely livelock: {self.protocol.blocked_description()}"
            )
        stuck = [p for p in self.processes if not p.finished]
        if stuck:
            details = "; ".join(
                f"{p.name} on cell {p.cell_id} waiting on {p.waiting_description}"
                for p in stuck
            )
            protocol_view = "; ".join(self.protocol.blocked_description())
            raise DeadlockError(
                f"{len(stuck)} thread(s) never finished: {details}"
                + (f" | protocol: {protocol_view}" if protocol_view else "")
            )

    def copy(self) -> "KsrMachine":
        """An independent copy of this idle machine, to continue separately.

        The copy is a pickle round trip, so it carries every cache,
        directory entry, word value, random stream and clock reading
        exactly; a thread spawned on the copy runs as it would on the
        original.  Only an idle machine can be copied: a queued event or
        an unfinished thread raises :class:`SimulationError`.  Finished
        threads are not copied (their generators cannot be).
        """
        if self.engine.pending:
            raise SimulationError(
                f"cannot copy a machine with {self.engine.pending} queued event(s)"
            )
        live = [p.name for p in self.processes if not p.finished]
        if live:
            raise SimulationError(f"cannot copy a machine with unfinished threads {live}")
        return pickle.loads(pickle.dumps(self, pickle.HIGHEST_PROTOCOL))

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        state["processes"] = []
        return state

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    @property
    def now_cycles(self) -> float:
        """Current simulation time in CPU cycles."""
        return self.engine.now

    @property
    def now_seconds(self) -> float:
        """Current simulation time in seconds."""
        return self.config.seconds(self.engine.now)

    def elapsed_seconds(self, process: Process) -> float:
        """A finished process's lifetime in seconds."""
        return self.config.seconds(process.elapsed)

    def total_perf(self) -> PerfMonitor:
        """Performance-monitor counters summed over all cells."""
        return PerfMonitor.aggregate(cell.perfmon for cell in self.cells)

    def set_trace(self, trace: Optional[Trace]) -> Optional[Trace]:
        """Attach ``trace`` to every cell (or detach with ``None``).

        Returns the previously attached trace so an observer can
        restore it on detach.  Attaching after construction is how
        :class:`repro.obs.Observer` taps the op stream of a machine it
        did not build.
        """
        previous = self.trace
        self.trace = trace
        for cell in self.cells:
            cell.set_trace(trace)
        return previous

    def reset_perf(self) -> None:
        """Zero every cell's performance monitor."""
        for cell in self.cells:
            cell.perfmon.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KsrMachine({self.config.name}, {self.config.n_cells} cells, "
            f"t={self.engine.now:.0f} cy)"
        )
