"""Figure 2: read/write latencies of the memory hierarchy (section 3.1).

The measurement methodology follows the paper exactly:

* **sub-cache** — repeated reads of one resident word.
* **local cache** — two private arrays A and B, both too large for the
  sub-cache; B is read repeatedly to (probabilistically, under random
  replacement) fill the sub-cache, then timed accesses to A miss the
  sub-cache but hit the local cache.
* **network** — each processor first touches a private array (COMA
  ownership by access), then every processor reads its *neighbour's*
  array simultaneously, at subpage stride so each access is a genuine
  ring transaction.  Distinct data everywhere — no false sharing.
* **allocation overheads** — the same runs at 2 KB stride (every
  access allocates a sub-cache block: the +50 % case) and 16 KB stride
  (every access allocates a local-cache page: the +60 % case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.errors import ConfigError, SimulationError
from repro.experiments.base import (
    CATALOG, ExperimentResult, Instruments, Plan, fill_params, plan_of, run_plan,
)
from repro.experiments.sweep import SweepRunner
from repro.machine.api import SharedArray, SharedMemory
from repro.machine.config import (
    BLOCK_BYTES,
    MachineConfig,
    PAGE_BYTES,
    SUBBLOCK_BYTES,
    SUBPAGE_BYTES,
    TimerConfig,
    WORD_BYTES,
)
from repro.machine.ksr import KsrMachine
from repro.obs import ObsCapture, ObsSpec
from repro.sim.process import Op, Read, Write

__all__ = [
    "LatencyMeasurement",
    "figure2_assemble",
    "figure2_plan",
    "measure_cell_runs",
    "measure_latencies",
    "run_figure2",
]

#: Private array size per processor: comfortably larger than the
#: 256 KB sub-cache so it cannot be held there, small enough to keep
#: event counts reasonable.
_ARRAY_BYTES = 512 * 1024
#: Timed accesses per processor per measurement.
_SAMPLES = 1500
#: Sweeps of B used to (probabilistically) fill the sub-cache.
_FILL_SWEEPS = 2


@dataclass(frozen=True)
class LatencyMeasurement:
    """Mean per-access latency for one (level, op, P) point, seconds."""

    n_procs: int
    level: str  # "local" | "network"
    op: str  # "read" | "write"
    stride_bytes: int
    mean_latency_s: float
    #: What an :class:`~repro.obs.Observer` saw (``None`` unless the
    #: point ran with ``obs``).
    capture: Optional[ObsCapture] = None

    @property
    def mean_latency_cycles_ksr1(self) -> float:
        """Convenience view at the KSR-1 clock."""
        return self.mean_latency_s * 20e6


def _config(n_procs: int, seed: int) -> MachineConfig:
    return MachineConfig.ksr1(
        n_cells=max(2, n_procs), seed=seed, timer=TimerConfig(enabled=False)
    )


def _sweep(arr: SharedArray, stride_bytes: int, samples: int, *, write: bool) -> Iterator[Op]:
    """Timed access loop at a byte stride, wrapping inside the array."""
    base, n_words = arr.base, len(arr)
    stride_words = max(1, stride_bytes // 8)
    idx = 0
    for _ in range(samples):
        if write:
            yield Write(base + idx * WORD_BYTES, 1)
        else:
            yield Read(base + idx * WORD_BYTES)
        idx = (idx + stride_words) % n_words


def _first_touch(arr: SharedArray) -> Iterator[Op]:
    """Touch every subpage once so the array is owned locally."""
    for addr in range(arr.base, arr.base + arr.nbytes, SUBPAGE_BYTES):
        yield Write(addr, 0)


def _a_words(stride_bytes: int, samples: int) -> int:
    """Words of a timed array: the timed sweep must never wrap, or
    revisits become cache hits."""
    return max(_ARRAY_BYTES, (samples + 1) * stride_bytes) // 8


class _Layout:
    """A fresh timer-off machine of a P-processor point with its arrays.

    Every processor ``i`` gets a private array ``A{i}`` and, at the
    local level, a fill array ``B{i}``.  Processor ``i``'s thread is
    :meth:`prefix` then :meth:`timed`; :meth:`body` runs both and
    records the timed cycles in :attr:`timings`.
    """

    def __init__(self, n_procs: int, level: str, stride_bytes: int, seed: int, samples: int):
        self.machine = KsrMachine(_config(n_procs, seed))
        self.level, self.samples = level, samples
        mem = SharedMemory(self.machine)
        words = _a_words(stride_bytes, samples)
        self.arrays_a = [mem.page_array(f"A{i}", words) for i in range(n_procs)]
        self.arrays_b = (
            [mem.page_array(f"B{i}", _ARRAY_BYTES // 8) for i in range(n_procs)]
            if level == "local"
            else []
        )
        self.timings: dict[int, float] = {}

    def prefix(self, pid: int) -> Iterator[Op]:
        """First touch of ``A{pid}``, and at the local level of ``B{pid}``
        with the sweeps of B that fill the sub-cache."""
        yield from _first_touch(self.arrays_a[pid])
        if self.level == "local":
            mine_b = self.arrays_b[pid]
            yield from _first_touch(mine_b)
            for _ in range(_FILL_SWEEPS):
                yield from _sweep(
                    mine_b, SUBBLOCK_BYTES, len(mine_b) // (SUBBLOCK_BYTES // 8), write=False
                )

    def timed(self, pid: int, op: str, stride_bytes: int) -> Iterator[Op]:
        """The timed accesses: to ``A{pid}`` at the local level, to the
        neighbour's array at the network level."""
        if self.level == "local":
            target = self.arrays_a[pid]
        else:
            target = self.arrays_a[(pid + 1) % len(self.arrays_a)]
        return _sweep(target, stride_bytes, self.samples, write=(op == "write"))

    def body(self, pid: int, op: str, stride_bytes: int) -> Iterator[Op]:
        yield from self.prefix(pid)
        engine = self.machine.engine
        start = engine.now
        yield from self.timed(pid, op, stride_bytes)
        self.timings[pid] = engine.now - start


def _check_op(op: str) -> None:
    if op not in ("read", "write"):
        raise ConfigError(f"unknown op {op!r}")


def measure_latencies(
    n_procs: int,
    level: str,
    op: str,
    *,
    stride_bytes: int | None = None,
    seed: int = 101,
    samples: int = _SAMPLES,
    obs: ObsSpec | None = None,
) -> LatencyMeasurement:
    """One (level, op, P) measurement on a fresh machine.

    The default stride is one sub-block for the local level (the
    natural miss granularity of the sub-cache) and one subpage for the
    network level (every timed access is a genuine ring transaction —
    how the published 175-cycle number is defined).

    With ``obs`` set, an :class:`~repro.obs.Observer` rides along
    (probes are read-only, so the measurement itself is unchanged) and
    the measurement carries its capture.
    """
    if level not in ("local", "network"):
        raise ConfigError(f"unknown level {level!r}")
    _check_op(op)
    if stride_bytes is None:
        stride_bytes = SUBBLOCK_BYTES if level == "local" else SUBPAGE_BYTES
    layout = _Layout(n_procs, level, stride_bytes, seed, samples)
    machine = layout.machine
    instruments = Instruments(machine, None, obs)
    for i in range(n_procs):
        machine.spawn(f"lat-{i}", layout.body(i, op, stride_bytes), i)
    machine.run()
    mean_cycles = sum(layout.timings.values()) / (n_procs * samples)
    point = instruments.point(
        machine.config.seconds(mean_cycles),
        f"fig2 {level} {op} P={n_procs}",
        level=level, op=op, n_procs=n_procs,
        stride_bytes=stride_bytes, seed=seed, samples=samples,
    )
    return LatencyMeasurement(
        n_procs=n_procs,
        level=level,
        op=op,
        stride_bytes=stride_bytes,
        mean_latency_s=point.seconds,
        capture=point.capture,
    )


def measure_cell_runs(
    cell: int,
    variants: tuple[tuple[str, int], ...],
    *,
    seed: int = 101,
    samples: int = _SAMPLES,
) -> tuple[float, ...]:
    """Timed cycles of processor ``cell`` in local-level points, run alone.

    The machine and the array layout are those of the ``P = cell + 1``
    point, but only ``lat-{cell}`` runs.  At the local level a
    processor touches only its own arrays, draws only from its own
    cell's random streams and makes no ring transaction, so its timing
    is the same in every point with ``P > cell``.

    ``variants`` are the ``(op, stride_bytes)`` timed sweeps to measure,
    all with one array layout.  Their shared prefix (first touch and
    fill sweeps) runs once; each variant but the last then runs its
    timed sweep on a :meth:`~repro.machine.ksr.KsrMachine.copy` of the
    idle machine, and the last on the machine itself.  Returns each
    variant's cycles, in order.  After every variant the run checks its
    claim and raises :class:`~repro.errors.SimulationError` if it made
    a ring transaction or created a directory entry outside its own
    ``A{cell}``/``B{cell}`` subpages.
    """
    if cell < 0:
        raise ConfigError(f"cell must be >= 0, got {cell}")
    if not variants:
        raise ConfigError("measure_cell_runs needs at least one (op, stride) variant")
    for op, _ in variants:
        _check_op(op)
    if len({_a_words(stride, samples) for _, stride in variants}) != 1:
        raise ConfigError(f"variants {variants} need arrays of different sizes")
    layout = _Layout(cell + 1, "local", variants[0][1], seed, samples)
    idle = layout.machine
    idle.spawn(f"lat-{cell}", layout.prefix(cell), cell)
    idle.run()
    own: set[int] = set()
    for arr in (layout.arrays_a[cell], layout.arrays_b[cell]):
        first, last = arr.addr(0) // SUBPAGE_BYTES, arr.addr(len(arr) - 1) // SUBPAGE_BYTES
        own.update(range(first, last + 1))
    cycles = []
    for i, (op, stride) in enumerate(variants):
        machine = idle if i == len(variants) - 1 else idle.copy()
        process = machine.spawn(f"lat-{cell}", layout.timed(cell, op, stride), cell)
        machine.run()
        if machine.total_perf().ring_transactions:
            raise SimulationError(f"fig2 cell-run {cell} made ring transactions")
        stray = machine.protocol.directory.subpage_ids() - own
        if stray:
            raise SimulationError(
                f"fig2 cell-run {cell} touched subpage 0x{min(stray):x} outside its own arrays"
            )
        cycles.append(process.elapsed)
    return tuple(cycles)


def _figure2_calls(
    proc_counts: list[int], seed: int, samples: int, callouts: bool = True
) -> list[dict]:
    """The :func:`measure_latencies` calls behind one Figure 2 table.

    One per (P, level, op) cell of the table, then (with ``callouts``)
    the four allocation-overhead call-outs.
    """
    calls: list[dict] = []
    for p in proc_counts:
        for level in ("local", "network"):
            for op in ("read", "write"):
                if level == "network" and p < 2:
                    continue  # a 1-processor "neighbour" is itself
                calls.append(dict(n_procs=p, level=level, op=op, seed=seed, samples=samples))
    if callouts:  # allocation overhead call-outs at one processor
        calls.append(dict(n_procs=1, level="local", op="read", seed=seed, samples=samples))
        calls.append(
            dict(
                n_procs=1, level="local", op="read",
                stride_bytes=BLOCK_BYTES, seed=seed, samples=samples,
            )
        )
        calls.append(dict(n_procs=2, level="network", op="read", seed=seed, samples=samples))
        calls.append(
            dict(
                n_procs=2, level="network", op="read",
                stride_bytes=PAGE_BYTES, seed=seed, samples=samples,
            )
        )
    return calls


def figure2_plan(
    proc_counts: list[int], *, seed: int, samples: int, obs: ObsSpec | None = None,
    callouts: bool = True,
) -> Plan:
    """The points behind one Figure 2 table, in map order.

    With ``obs``, one whole-machine :func:`measure_latencies` run per
    table call; without, the cell-runs of the local calls, then the
    network calls.  ``callouts=False`` leaves out the allocation call-outs.
    """
    calls = _figure2_calls(proc_counts, seed, samples, callouts)
    if obs is not None:
        return plan_of(measure_latencies, calls, obs)
    return _cell_run_plan(calls)


def _cell_groups(calls: list[dict]) -> dict[tuple[int, int, int, int], list[tuple[str, int]]]:
    """The ``(op, stride)`` variants of ``calls``' local points, grouped by
    ``(cell, seed, samples, array words)``: one prefix per group."""
    groups: dict[tuple[int, int, int, int], list[tuple[str, int]]] = {}
    for c in calls:
        if c["level"] != "local":
            continue
        stride = c.get("stride_bytes", SUBBLOCK_BYTES)
        for cell in range(c["n_procs"]):
            key = (cell, c["seed"], c["samples"], _a_words(stride, c["samples"]))
            variants = groups.setdefault(key, [])
            if (c["op"], stride) not in variants:
                variants.append((c["op"], stride))
    return groups


def _cell_run_plan(calls: list[dict]) -> Plan:
    """One :func:`measure_cell_runs` per (cell, array layout) of ``calls``'
    local points, then their network points."""
    cell_calls = [
        dict(cell=cell, variants=tuple(variants), seed=seed, samples=samples)
        for (cell, seed, samples, _), variants in _cell_groups(calls).items()
    ]
    network = [c for c in calls if c["level"] == "network"]
    return plan_of(measure_cell_runs, cell_calls) + plan_of(measure_latencies, network)


def _assemble_local(calls: list[dict], values: list) -> list[LatencyMeasurement]:
    """The points of ``calls`` from the values of :func:`_cell_run_plan`.

    A local point's mean is the sum of its processors' cell-run cycles
    over ``P * samples``: the same formula :func:`measure_latencies`
    applies to the same whole-cycle timings, so the value is identical.
    Network points, whose cells share the ring, are whole-machine runs.
    """
    groups = _cell_groups(calls)
    cycles = {
        (cell, seed, samples, op, stride): timed
        for ((cell, seed, samples, _), variants), runs in zip(groups.items(), values)
        for (op, stride), timed in zip(variants, runs)
    }
    network = iter(values[len(groups):])
    points = []
    for call in calls:
        if call["level"] == "network":
            points.append(next(network))
            continue
        p, seed, samples = call["n_procs"], call["seed"], call["samples"]
        stride = call.get("stride_bytes", SUBBLOCK_BYTES)
        timed = sum(cycles[cell, seed, samples, call["op"], stride] for cell in range(p))
        points.append(
            LatencyMeasurement(
                n_procs=p,
                level="local",
                op=call["op"],
                stride_bytes=stride,
                mean_latency_s=_config(p, seed).seconds(timed / (p * samples)),
            )
        )
    return points


def run_figure2(
    proc_counts: list[int] | None = None, *, seed: int | None = None, samples: int | None = None,
    runner: SweepRunner | None = None, obs: ObsSpec | None = None, trace_dir: str | None = None,
) -> ExperimentResult:
    """Reproduce Figure 2 plus the allocation-overhead call-outs.

    ``proc_counts``, ``seed`` and ``samples`` default to the catalog's
    default run (``CATALOG["fig2"]``).  The table is
    :func:`figure2_assemble` over the values of :func:`figure2_plan`.

    A network point runs on a fresh, point-seeded machine.  A local
    point is assembled from per-processor timings: its cells share no
    state, so cell ``c``'s timing is the same at every P, and one
    :func:`measure_cell_runs` per (cell, array layout) simulates the
    shared prefix once for every (op, stride) of the table.  Either way
    ``runner`` may compute the sweep units in parallel and/or from the
    result cache, and the assembled table is byte-identical to running
    every point through :func:`measure_latencies`.

    ``trace_dir`` (implies a default ``obs``) writes one Chrome-trace
    file per point into that directory without changing the table.
    With ``obs`` set every point, local ones included, runs as one
    whole machine, so each point yields one capture.
    """
    params = fill_params(
        CATALOG["fig2"].default, trace_dir=trace_dir, proc_counts=proc_counts, seed=seed,
        samples=samples, obs=obs,
    )
    values = run_plan(figure2_plan(**params), runner, trace_dir=trace_dir, experiment_id="FIG2")
    return figure2_assemble(params, values)


def figure2_assemble(params: dict[str, Any], values: list) -> ExperimentResult:
    """The Figure 2 table from the values of ``figure2_plan(**params)``."""
    proc_counts, seed, samples = params["proc_counts"], params["seed"], params["samples"]
    points = values
    if params.get("obs") is None:
        points = _assemble_local(_figure2_calls(proc_counts, seed, samples), values)
    result = ExperimentResult(
        experiment_id="FIG2",
        title="Read/Write latencies on the KSR (microseconds per access)",
        headers=["P", "local read", "local write", "network read", "network write"],
    )
    measured = iter(points)
    for p in proc_counts:
        row = [p]
        for level in ("local", "network"):
            for op in ("read", "write"):
                if level == "network" and p < 2:
                    row.append("-")
                    continue
                m = next(measured)
                row.append(m.mean_latency_s * 1e6)
                result.add_series_point(f"{level} {op}", p, m.mean_latency_s)
        result.add_row(row)
    base_local, block_local, base_net, page_net = measured
    block_rise = block_local.mean_latency_s / base_local.mean_latency_s - 1.0
    page_rise = page_net.mean_latency_s / base_net.mean_latency_s - 1.0
    result.notes.append(
        f"2KB-block-allocating stride raises local access time by "
        f"{block_rise * 100:.0f}% (paper: ~50%)"
    )
    result.notes.append(
        f"16KB-page-allocating stride raises remote access time by "
        f"{page_rise * 100:.0f}% (paper: ~60%)"
    )
    net = result.series.get("network read", [])
    if len(net) >= 2:
        rise = net[-1][1] / net[0][1] - 1.0
        result.notes.append(
            f"network read latency rises {rise * 100:.1f}% from P={net[0][0]:.0f} "
            f"to P={net[-1][0]:.0f} (paper: ~8% at 32)"
        )
    return result
