"""Sequential-consistency litmus tests for the coherence protocol.

"The architecture provides a sequentially consistent shared memory
model."  This module runs the classic litmus tests against the
simulated protocol and checks that only SC-permitted outcomes occur:

* **SB** (store buffering / Dekker): both threads store then load the
  other's flag; SC forbids both loads returning 0.
* **MP** (message passing): data write before flag write; an observer
  that sees the flag must see the data.
* **LB** (load buffering): loads followed by stores; SC forbids both
  loads observing the other thread's (later) store.
* **IRIW** (independent reads of independent writes): two observers
  must agree on the order of two independent writes.

A litmus test is *data*, not code: a :class:`LitmusTest` names the
per-thread op sequences over a handful of shared variables and the set
of forbidden observations, and :func:`run_litmus` interprets it on a
fresh machine.  Generated tests (the scenario corpus of
:mod:`repro.analysis.scenarios`) reuse the same interpreter through
:func:`run_schedule`, which executes one *global* step sequence — each
step runs to completion before the next starts — and reports the full
protocol-visible outcome (observations, directory and cache states,
memory) for differential comparison against the abstract model.

Each classic test takes a list of per-thread *skews* (compute delays
before the sequence starts) so callers — in particular the hypothesis
fuzz tests — can explore many interleavings; on a correct protocol no
skew can produce a forbidden outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.errors import ConfigError, DeadlockError, SimulationError
from repro.machine.api import SharedMemory
from repro.machine.config import MachineConfig, TimerConfig
from repro.machine.ksr import KsrMachine
from repro.memory.address import subpage_of
from repro.sim.process import Compute, GetSubpage, Poststore, Read, ReleaseSubpage, Write

__all__ = [
    "LitmusOutcome",
    "LitmusTest",
    "ScheduleOutcome",
    "run_litmus",
    "run_schedule",
    "run_step",
    "schedule_machine",
    "run_sb",
    "run_mp",
    "run_lb",
    "run_iriw",
    "SB",
    "MP",
    "LB",
    "IRIW",
    "ALL_LITMUS",
    "SCHEDULE_OPS",
]

#: One thread step: ``("compute", cycles)``, ``("read", var)``,
#: ``("write", var, value)``, ``("gsp", var)``, ``("rsp", var)`` or
#: ``("poststore", var)``.  Variables are small integers indexing the
#: test's allocation table; each gets its own subpage-aligned word.
ThreadStep = tuple

#: Ops a global schedule step may use (the protocol entry points the
#: abstract model knows about; ``compute`` is thread-local padding).
SCHEDULE_OPS = ("read", "write", "gsp", "rsp", "poststore")


@dataclass(frozen=True)
class LitmusOutcome:
    """Result of one litmus execution."""

    name: str
    observed: tuple
    forbidden: bool
    description: str


@dataclass(frozen=True)
class LitmusTest:
    """A litmus test as pure data.

    ``threads[i]`` runs on cell ``i``.  ``observed`` is assembled from
    the threads that read: each contributes its read results (a bare
    value for a single read, a tuple for several), and the per-thread
    layer is unwrapped when exactly one thread reads — so SB observes
    ``(r0, r1)`` while IRIW observes ``((a, b), (c, d))``.  The test
    fails iff the observation is in ``forbidden``.
    """

    name: str
    description: str
    n_vars: int
    threads: tuple[tuple[ThreadStep, ...], ...]
    forbidden: frozenset

    @property
    def n_cells(self) -> int:
        return len(self.threads)

    def reading_threads(self) -> list[int]:
        """Indices of threads that perform at least one read."""
        return [
            i
            for i, steps in enumerate(self.threads)
            if any(step[0] == "read" for step in steps)
        ]


SB = LitmusTest(
    name="SB",
    description="store buffering: (0, 0) is forbidden under SC",
    n_vars=2,
    threads=(
        (("write", 0, 1), ("read", 1)),
        (("write", 1, 1), ("read", 0)),
    ),
    forbidden=frozenset({(0, 0)}),
)

MP = LitmusTest(
    name="MP",
    description="message passing: flag seen but data stale is forbidden",
    n_vars=2,
    threads=(
        # var 0 is the data, var 1 the flag
        (("write", 0, 42), ("write", 1, 1)),
        (("read", 1), ("read", 0)),
    ),
    forbidden=frozenset({(1, 0)}),
)

LB = LitmusTest(
    name="LB",
    description="load buffering: (1, 1) is forbidden under SC",
    n_vars=2,
    threads=(
        (("read", 0), ("write", 1, 1)),
        (("read", 1), ("write", 0, 1)),
    ),
    forbidden=frozenset({(1, 1)}),
)

IRIW = LitmusTest(
    name="IRIW",
    description="IRIW: observers disagreeing on write order is forbidden",
    n_vars=2,
    threads=(
        (("write", 0, 1),),
        (("write", 1, 1),),
        (("read", 0), ("read", 1)),
        (("read", 1), ("read", 0)),
    ),
    # observer 2 sees x=1 then y=0 (x before y) while observer 3 sees
    # y=1 then x=0 (y before x)
    forbidden=frozenset({((1, 0), (1, 0))}),
)


def _machine(n_cells: int, seed: int) -> tuple[KsrMachine, SharedMemory]:
    config = MachineConfig.ksr1(
        n_cells=n_cells, seed=seed, timer=TimerConfig(enabled=False)
    )
    machine = KsrMachine(config)
    return machine, SharedMemory(machine)


def _check_skews(skews: Sequence[float], n: int) -> list[float]:
    if len(skews) != n:
        raise ConfigError(f"need exactly {n} skews")
    if any(s < 0 for s in skews):
        raise ConfigError("skews must be non-negative")
    return list(skews)


def _step_op(step: ThreadStep, addrs: Sequence[int]):
    """The simulator op for one thread step."""
    kind = step[0]
    if kind == "compute":
        return Compute(step[1])
    if kind == "read":
        return Read(addrs[step[1]])
    if kind == "write":
        return Write(addrs[step[1]], step[2])
    if kind == "gsp":
        return GetSubpage(addrs[step[1]])
    if kind == "rsp":
        return ReleaseSubpage(addrs[step[1]])
    if kind == "poststore":
        return Poststore(addrs[step[1]])
    raise ConfigError(f"unknown litmus step kind {kind!r}")


def _thread_body(steps: Sequence[ThreadStep], addrs: Sequence[int], skew: float):
    def body():
        reads = []
        if skew:
            yield Compute(skew)
        for step in steps:
            result = yield _step_op(step, addrs)
            if step[0] == "read":
                reads.append(result)
        if not reads:
            return None
        return reads[0] if len(reads) == 1 else tuple(reads)

    return body()


def run_litmus(
    test: LitmusTest,
    skews: Optional[Sequence[float]] = None,
    *,
    seed: int = 1,
) -> LitmusOutcome:
    """Interpret one data-form litmus test on a fresh machine."""
    n = test.n_cells
    skews = _check_skews(skews if skews is not None else (0.0,) * n, n)
    machine, mem = _machine(n, seed)
    addrs = [mem.alloc_word() for _ in range(test.n_vars)]
    processes = [
        machine.spawn(f"{test.name.lower()}-{i}", _thread_body(steps, addrs, skews[i]), i)
        for i, steps in enumerate(test.threads)
    ]
    machine.run()
    readers = test.reading_threads()
    results = [processes[i].result for i in readers]
    observed = results[0] if len(readers) == 1 else tuple(results)
    return LitmusOutcome(
        name=test.name,
        observed=observed,
        forbidden=observed in test.forbidden,
        description=test.description,
    )


def run_sb(skews: Sequence[float] = (0, 0), *, seed: int = 1) -> LitmusOutcome:
    """Store buffering: forbidden outcome is r0 == r1 == 0."""
    return run_litmus(SB, skews, seed=seed)


def run_mp(skews: Sequence[float] = (0, 0), *, seed: int = 1) -> LitmusOutcome:
    """Message passing: if the flag is seen, the data must be seen."""
    return run_litmus(MP, skews, seed=seed)


def run_lb(skews: Sequence[float] = (0, 0), *, seed: int = 1) -> LitmusOutcome:
    """Load buffering: forbidden outcome is r0 == r1 == 1."""
    return run_litmus(LB, skews, seed=seed)


def run_iriw(skews: Sequence[float] = (0, 0, 0, 0), *, seed: int = 1) -> LitmusOutcome:
    """Independent reads of independent writes: the two observers must
    not see the two writes in opposite orders."""
    return run_litmus(IRIW, skews, seed=seed)


ALL_LITMUS = {
    "SB": run_sb,
    "MP": run_mp,
    "LB": run_lb,
    "IRIW": run_iriw,
}


# ----------------------------------------------------------------------
# Global-schedule execution (scenario lowering seam)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleOutcome:
    """Everything protocol-visible after executing one global schedule.

    ``observations`` pairs each read step's index in the schedule with
    the value it returned.  State vectors are indexed ``[var][cell]``
    with ``SubpageState`` names (``None`` when the cell holds no copy);
    the directory and local-cache views are reported separately so a
    disagreement between them is itself detectable.  ``completed`` is
    ``False`` when a step deadlocked or livelocked — for generated
    schedules that is always a divergence, with the raising step and
    message in ``diagnostics``.
    """

    completed: bool
    observations: tuple[tuple[int, Any], ...]
    directory_states: tuple[tuple[Optional[str], ...], ...]
    cache_states: tuple[tuple[Optional[str], ...], ...]
    created: tuple[bool, ...]
    memory: tuple[Any, ...]
    diagnostics: str = ""


def _single_step_body(op_kind: str, addr: int, value: Any, sink: list):
    def body():
        if op_kind == "write":
            yield Write(addr, value)
        elif op_kind == "read":
            result = yield Read(addr)
            sink.append(result)
        elif op_kind == "gsp":
            yield GetSubpage(addr)
        elif op_kind == "rsp":
            yield ReleaseSubpage(addr)
        elif op_kind == "poststore":
            yield Poststore(addr)
        else:
            raise ConfigError(f"unknown schedule op {op_kind!r}")

    return body()


def schedule_machine(
    n_cells: int, n_vars: int, *, seed: int = 1
) -> tuple[KsrMachine, list[int]]:
    """A fresh machine for :func:`run_step`, and one subpage-aligned
    word per schedule variable."""
    machine, mem = _machine(n_cells, seed)
    return machine, [mem.alloc_word() for _ in range(n_vars)]


def run_step(
    machine: KsrMachine,
    addrs: Sequence[int],
    index: int,
    step: tuple,
    *,
    step_max_events: int = 50_000,
) -> Any:
    """Run schedule step ``index`` to quiescence; the value it read.

    ``step`` is ``(op, cell, var)`` — writes ``(op, cell, var,
    value)`` — with ``op`` in :data:`SCHEDULE_OPS`.  Raises
    :class:`~repro.errors.DeadlockError` or
    :class:`~repro.errors.SimulationError` when the step cannot finish
    within ``step_max_events`` events.
    """
    op_kind, cell = step[0], step[1]
    value = step[3] if op_kind == "write" else None
    sink: list = []
    body = _single_step_body(op_kind, addrs[step[2]], value, sink)
    machine.spawn(f"step{index}-{op_kind}", body, cell)
    machine.run(max_events=step_max_events)
    return sink[0] if sink else None


def run_schedule(
    steps: Sequence[tuple],
    *,
    n_cells: int,
    n_vars: int,
    seed: int = 1,
    step_max_events: int = 50_000,
) -> ScheduleOutcome:
    """Execute a global step sequence, one step at a time.

    Each step runs through :func:`run_step`, and the machine runs to
    quiescence between steps, so the schedule *is* the interleaving:
    this is the concrete realization of one abstract-model action
    sequence, and the only execution mode the differential oracle in
    :mod:`repro.analysis.scenarios` compares against.

    A step that cannot finish within ``step_max_events`` events (a
    blocked atomic acquire retrying forever) or that deadlocks yields
    ``completed=False`` with the step index in ``diagnostics`` — never
    an exception, so divergence handling stays in the oracle.
    """
    machine, addrs = schedule_machine(n_cells, n_vars, seed=seed)
    observations: list[tuple[int, Any]] = []
    completed = True
    diagnostics = ""
    for index, step in enumerate(steps):
        try:
            observed = run_step(machine, addrs, index, step, step_max_events=step_max_events)
        except (DeadlockError, SimulationError) as exc:
            completed = False
            diagnostics = f"step {index} {step!r}: {exc}"
            break
        if step[0] == "read":
            observations.append((index, observed))
    directory = machine.protocol.directory
    subpages = [subpage_of(a) for a in addrs]
    dir_states = tuple(
        tuple(
            (lambda s: s.name if s is not None else None)(directory.state_in(sp, c))
            for c in range(n_cells)
        )
        for sp in subpages
    )
    cache_states = tuple(
        tuple(
            (lambda s: s.name if s is not None else None)(
                machine.cells[c].local_cache.state_of(sp)
            )
            for c in range(n_cells)
        )
        for sp in subpages
    )
    created = tuple(directory.entry(sp).created for sp in subpages)
    memory = tuple(machine.protocol.peek(a) for a in addrs)
    return ScheduleOutcome(
        completed=completed,
        observations=tuple(observations),
        directory_states=dir_states,
        cache_states=cache_states,
        created=created,
        memory=memory,
        diagnostics=diagnostics,
    )
