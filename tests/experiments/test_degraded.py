"""Degraded-mode experiment points and tables.

The simulated points are the figure measurers run with a fault plan.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.experiments.barriers import measure_barrier
from repro.experiments.degraded import (
    DegradedRingLoadModel,
    degraded_cg_point,
    degraded_ep_point,
    fault_factors,
    run_degraded_barriers,
    run_degraded_kernels,
    run_degraded_locks,
)
from repro.experiments.locks import measure_lock
from repro.faults import FaultPlan
from repro.machine.config import MachineConfig


class TestLockPoint:
    def test_zero_plan_reproduces_the_clean_measurement(self):
        clean = measure_lock("rw", 8, 0.0, ops=10, seed=303)
        degraded = measure_lock("rw", 8, 0.0, ops=10, seed=303, plan=FaultPlan())
        assert degraded.seconds == clean.seconds
        assert all(v == 0.0 for _, v in degraded.faults)

    def test_corruption_slows_and_tallies(self):
        clean = measure_lock("rw", 8, 0.0, ops=10, plan=FaultPlan())
        faulty = measure_lock(
            "rw", 8, 0.0, ops=10, plan=FaultPlan(corruption_rate=1e-2)
        )
        assert faulty.seconds > clean.seconds
        assert faulty.fault("retries") > 0

    def test_dead_cell_under_thread_placement_rejected(self):
        with pytest.raises(ConfigError, match="thread placement"):
            measure_lock("rw", 8, 0.0, ops=10, plan=FaultPlan(dead_cells=(3,)))

    def test_dead_cell_above_thread_placement_allowed(self):
        point = measure_lock(
            "rw", 4, 0.0, ops=10, plan=FaultPlan(dead_cells=(5,))
        )
        assert point.fault("bypass_hops") > 0

    def test_unknown_lock_kind(self):
        with pytest.raises(ValueError, match="lock kind"):
            measure_lock("spin", 4, 0.0, ops=10, plan=FaultPlan())


class TestBarrierPoint:
    def test_needs_two_processors(self):
        with pytest.raises(ConfigError):
            measure_barrier("tree", 1, plan=FaultPlan())

    def test_zero_and_faulty_points_run(self):
        clean = measure_barrier("tree", 4, reps=4, plan=FaultPlan())
        faulty = measure_barrier(
            "tree", 4, reps=4, plan=FaultPlan(corruption_rate=1e-2)
        )
        assert clean.seconds > 0
        assert faulty.fault("retries") > 0


class TestFaultFactors:
    def test_zero_plan_is_identity(self):
        assert fault_factors(FaultPlan()) == (1.0, 0.0, 1.0)

    def test_corruption_inflates_retry_factor(self):
        retry, extra, inflation = fault_factors(FaultPlan(corruption_rate=0.5))
        assert 1.0 < retry < 2.0  # truncated geometric, budget of 8
        assert extra == 0.0
        assert inflation == 1.0

    def test_dead_cells_and_jitter_add_flat_cycles(self):
        _, extra, _ = fault_factors(
            FaultPlan(dead_cells=(40, 41), bypass_hop_cycles=8.0,
                      slot_jitter_cycles=2.0)
        )
        assert extra == 2 * 8.0 + 2.0

    def test_stall_inflation_capped(self):
        *_, inflation = fault_factors(
            FaultPlan(stall_rate=0.9, stall_cycles=1e6)
        )
        assert inflation == pytest.approx(1.0 / 0.1)


class TestDegradedLoadModel:
    def test_scales_and_offsets_the_clean_latency(self):
        ring = MachineConfig.ksr1(n_cells=4, seed=1).ring
        from repro.ring.contention import RingLoadModel

        clean = RingLoadModel(ring).effective_latency(8)
        degraded = DegradedRingLoadModel(
            ring, retry_factor=1.5, extra_cycles=10.0
        ).effective_latency(8)
        assert degraded == pytest.approx(clean * 1.5 + 10.0)

    def test_kernel_points_degrade_monotonically(self):
        plan = FaultPlan(corruption_rate=0.2)
        assert degraded_ep_point(4, n_pairs=1 << 12, plan=plan).seconds > (
            degraded_ep_point(4, n_pairs=1 << 12).seconds
        )
        assert degraded_cg_point(4, plan=plan).seconds > (
            degraded_cg_point(4).seconds
        )


class TestTables:
    RATES = [0.0, 1e-3]

    def test_locks_table_shape(self):
        result = run_degraded_locks([2, 4], self.RATES, ops=6)
        assert result.experiment_id == "F1"
        assert len(result.rows) == 2
        # P, clean, p=..., retries p=...
        assert len(result.headers) == 4
        assert result.notes

    def test_barriers_table_shape(self):
        result = run_degraded_barriers(
            [4], self.RATES, algorithms=["tree"], reps=4
        )
        assert result.experiment_id == "F2"
        assert len(result.rows) == 1
        assert result.rows[0][0] == "tree"

    def test_kernels_table_shape(self):
        result = run_degraded_kernels([1, 4], self.RATES)
        assert result.experiment_id == "F3"
        assert [row[0] for row in result.rows] == ["EP", "EP", "CG", "CG"]
