"""Figure 2's local level from cell-runs: equal to whole machines, guarded.

A local point's processors share no state, so each processor's timing
is simulated once, alone (:func:`measure_cell_run`), and the point is
assembled from them.  ``measure_latencies`` stays the whole-machine
reference these tests compare against by ``repr``.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.experiments import latency
from repro.experiments.base import run_plan
from repro.experiments.latency import (
    _assemble_local,
    _cell_run_plan,
    measure_cell_run,
    measure_latencies,
    run_figure2,
)
from repro.experiments.sweep import SweepRunner
from repro.machine.config import BLOCK_BYTES, SUBBLOCK_BYTES
from repro.obs import ObsSpec
from repro.sim.process import Write

SAMPLES = 60


class CountingRunner(SweepRunner):
    """Serial runner recording every computed sweep unit by function."""

    def __init__(self, jobs: int = 1):
        super().__init__(jobs=jobs)
        self.computed: list[tuple[str, dict]] = []

    def _execute(self, func, calls):  # type: ignore[override]
        self.computed.extend((func.__name__, dict(kwargs)) for kwargs in calls)
        return super()._execute(func, calls)


@pytest.mark.parametrize(
    "op, stride",
    [("read", None), ("write", None), ("read", BLOCK_BYTES)],
    ids=["read", "write", "read-2KB"],
)
def test_assembled_points_equal_whole_machines(op, stride):
    calls = []
    for p in (1, 2, 8):
        call = dict(n_procs=p, level="local", op=op, seed=101, samples=SAMPLES)
        if stride is not None:
            call["stride_bytes"] = stride
        calls.append(call)
    assembled = _assemble_local(calls, run_plan(_cell_run_plan(calls)))
    for call, value in zip(calls, assembled):
        assert repr(value) == repr(measure_latencies(**call))


def test_cell_timing_is_whole_cycles():
    cycles = measure_cell_run(3, "write", stride_bytes=SUBBLOCK_BYTES, samples=SAMPLES)
    assert cycles > 0 and cycles.is_integer()


def test_guard_rejects_a_foreign_touch(monkeypatch):
    body = latency._Layout.body

    def straying(self, pid):
        yield Write(self.arrays_a[0].addr(0), 0)  # processor 0's array
        yield from body(self, pid)

    monkeypatch.setattr(latency._Layout, "body", straying)
    with pytest.raises(SimulationError, match="outside its own arrays"):
        measure_cell_run(1, "read", stride_bytes=SUBBLOCK_BYTES, samples=SAMPLES)


@pytest.fixture(scope="module")
def serial_fig2():
    runner = CountingRunner()
    result = run_figure2(proc_counts=[1, 2, 8], samples=SAMPLES, runner=runner)
    return result, runner.computed


def test_each_cell_run_is_simulated_once(serial_fig2):
    _, computed = serial_fig2
    cells = [
        (kw["cell"], kw["op"], kw["stride_bytes"])
        for name, kw in computed
        if name == "measure_cell_run"
    ]
    expected = {(c, op, SUBBLOCK_BYTES) for c in range(8) for op in ("read", "write")}
    expected.add((0, "read", BLOCK_BYTES))
    assert len(cells) == len(expected) == 17
    assert set(cells) == expected
    # network points stay whole machines; the repeated P=2 read runs once
    network = [kw for name, kw in computed if name == "measure_latencies"]
    assert all(kw["level"] == "network" for kw in network)
    assert len(network) == 5


def test_parallel_renders_identically(serial_fig2):
    result, _ = serial_fig2
    with SweepRunner(jobs=2) as runner:
        parallel = run_figure2(proc_counts=[1, 2, 8], samples=SAMPLES, runner=runner)
    assert parallel.render() == result.render()


def test_observed_points_stay_whole_machines():
    runner = CountingRunner()
    observed = run_figure2(proc_counts=[1, 2], samples=SAMPLES, runner=runner, obs=ObsSpec())
    names = {name for name, _ in runner.computed}
    assert names == {"measure_latencies"}
    plain = run_figure2(proc_counts=[1, 2], samples=SAMPLES)
    assert observed.render() == plain.render()
