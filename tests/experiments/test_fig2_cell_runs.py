"""Figure 2's local level from cell-runs: equal to whole machines, guarded.

A local point's processors share no state, so each processor's timing
is simulated alone, and one :func:`measure_cell_runs` per (cell, array
layout) runs the shared prefix once for every (op, stride) variant.
``measure_latencies`` stays the whole-machine reference these tests
compare against by ``repr``.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, SimulationError
from repro.experiments import latency
from repro.experiments.base import CATALOG, run_plan
from repro.experiments.latency import (
    _assemble_local,
    _cell_run_plan,
    measure_cell_runs,
    measure_latencies,
    run_figure2,
)
from repro.experiments.sweep import SweepRunner
from repro.machine.config import BLOCK_BYTES, SUBBLOCK_BYTES
from repro.obs import ObsSpec
from repro.sim.process import Write

SAMPLES = 60
#: The three local variants of a Figure 2 table; at 60 samples they
#: share one array layout, so each cell's prefix runs once for all three.
VARIANTS = (("read", SUBBLOCK_BYTES), ("write", SUBBLOCK_BYTES), ("read", BLOCK_BYTES))


class CountingRunner(SweepRunner):
    """Serial runner recording every computed sweep unit by function."""

    def __init__(self, jobs: int = 1):
        super().__init__(jobs=jobs)
        self.computed: list[tuple[str, dict]] = []

    def _execute(self, func, calls):  # type: ignore[override]
        self.computed.extend((func.__name__, dict(kwargs)) for kwargs in calls)
        return super()._execute(func, calls)


@pytest.fixture(scope="module")
def local_points():
    """Every variant at P = 1, 2 and 8, assembled from one plan."""
    calls = [
        dict(n_procs=p, level="local", op=op, stride_bytes=stride, seed=101, samples=SAMPLES)
        for p in (1, 2, 8)
        for op, stride in VARIANTS
    ]
    plan = _cell_run_plan(calls)
    assert [func for func, _ in plan] == [measure_cell_runs] * 8
    return list(zip(calls, _assemble_local(calls, run_plan(plan))))


@pytest.mark.parametrize("variant", VARIANTS, ids=["read", "write", "read-2KB"])
def test_assembled_points_equal_whole_machines(local_points, variant):
    for call, value in local_points:
        if (call["op"], call["stride_bytes"]) == variant:
            assert repr(value) == repr(measure_latencies(**call))


def test_cell_timing_is_whole_cycles():
    cycles = measure_cell_runs(3, VARIANTS[:2], samples=SAMPLES)
    assert len(cycles) == 2
    assert all(c > 0 and c.is_integer() for c in cycles)


def test_variant_order_does_not_change_a_timing():
    forward = measure_cell_runs(2, VARIANTS, samples=SAMPLES)
    backward = measure_cell_runs(2, VARIANTS[::-1], samples=SAMPLES)
    assert forward == backward[::-1]


def test_variants_must_share_one_array_layout():
    # at 1,000 samples a 2 KB stride needs a larger A than a sub-block one
    with pytest.raises(ConfigError, match="arrays of different sizes"):
        measure_cell_runs(0, VARIANTS, samples=1000)
    with pytest.raises(ConfigError, match="at least one"):
        measure_cell_runs(0, (), samples=SAMPLES)


def test_guard_rejects_a_foreign_touch(monkeypatch):
    timed = latency._Layout.timed
    for stray in VARIANTS:

        def straying(self, pid, op, stride_bytes):
            if (op, stride_bytes) == stray:
                yield Write(self.arrays_a[0].addr(0), 0)  # processor 0's array
            yield from timed(self, pid, op, stride_bytes)

        monkeypatch.setattr(latency._Layout, "timed", straying)
        with pytest.raises(SimulationError, match="outside its own arrays"):
            measure_cell_runs(1, VARIANTS, samples=SAMPLES)


@pytest.fixture(scope="module")
def serial_fig2():
    runner = CountingRunner()
    result = run_figure2(proc_counts=[1, 2, 8], samples=SAMPLES, runner=runner)
    return result, runner.computed


def test_each_cell_run_is_simulated_once(serial_fig2):
    _, computed = serial_fig2
    cell_runs = [kw for name, kw in computed if name == "measure_cell_runs"]
    # cells 0..7 read and write, plus cell 0 at 2 KB stride: 17 timed
    # sweeps behind 8 prefixes
    assert [kw["cell"] for kw in cell_runs] == list(range(8))
    variants = {(kw["cell"], *v) for kw in cell_runs for v in kw["variants"]}
    expected = {(c, op, SUBBLOCK_BYTES) for c in range(8) for op in ("read", "write")}
    expected.add((0, "read", BLOCK_BYTES))
    assert len(variants) == sum(len(kw["variants"]) for kw in cell_runs) == 17
    assert variants == expected
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


def test_defaults_are_the_catalog_default_run(monkeypatch):
    class Mapped(Exception):
        pass

    plans = []

    def capture(plan, *args, **kwargs):
        plans.append(plan)
        raise Mapped

    monkeypatch.setattr(latency, "run_plan", capture)
    with pytest.raises(Mapped):
        run_figure2()
    assert plans == [latency.figure2_plan(**CATALOG["fig2"].default)]
