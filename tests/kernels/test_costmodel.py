"""Tests for the phase-level cost model and the barrier cost model."""

import pytest

from repro.errors import ConfigError
from repro.kernels.costmodel import (
    BarrierCostModel,
    CYCLES_PER_FLOP,
    KernelCostModel,
    PhaseWork,
)
from repro.machine.config import MachineConfig
from repro.memory.streams import sequential
from tests.conftest import quiet_ksr1


@pytest.fixture(scope="module")
def model():
    return KernelCostModel(MachineConfig.ksr1(32))


class TestComputePricing:
    def test_pure_flops(self, model):
        cost = model.phase_cost(PhaseWork(name="f", flops=1000))
        assert cost.compute_cycles == pytest.approx(1000 * CYCLES_PER_FLOP)
        assert cost.total_cycles == cost.compute_cycles

    def test_ep_calibration_sustains_11_mflops(self, model):
        """flops/s at 20 MHz with the calibrated flop cost ~ 11 M."""
        mflops = 20e6 / CYCLES_PER_FLOP / 1e6
        assert 10.0 < mflops < 12.0

    def test_extra_cycles_flat(self, model):
        a = model.phase_cost(PhaseWork(name="a"))
        b = model.phase_cost(PhaseWork(name="b", extra_cycles=500.0))
        assert b.total_cycles - a.total_cycles == pytest.approx(500.0)


class TestMemoryPricing:
    def test_resident_stream_cheap(self, model):
        """A small warm stream costs ~1 cycle per word access."""
        stream = sequential(0, 2048)  # 16 KB
        cost = model.phase_cost(PhaseWork(name="m", stream=stream))
        assert cost.total_cycles < 2048 * 3

    def test_capacity_overflow_goes_remote(self, model):
        """A 64 MB working set cannot live in a 32 MB local cache:
        warm misses become ring transfers (COMA eviction)."""
        stream = sequential(0, (64 << 20) // 8)
        cost = model.phase_cost(PhaseWork(name="big", stream=stream))
        assert cost.n_remote_transfers > 100_000
        assert cost.remote_cycles > cost.subcache_cycles * 0.2

    def test_stream_scale_multiplies(self, model):
        stream = sequential(0, 4096)
        one = model.phase_cost(PhaseWork(name="1", stream=stream, warm=False))
        four = model.phase_cost(
            PhaseWork(name="4", stream=stream, warm=False, stream_scale=4.0)
        )
        assert four.total_cycles == pytest.approx(4 * one.total_cycles, rel=0.01)

    def test_conflict_factor_raises_subcache_cost(self, model):
        stream = sequential(0, (4 << 20) // 8)
        clean = model.phase_cost(PhaseWork(name="c", stream=stream))
        thrash = model.phase_cost(
            PhaseWork(name="t", stream=stream, subcache_conflict_factor=2.0)
        )
        assert thrash.subcache_cycles > clean.subcache_cycles * 1.3


class TestRemotePricing:
    def test_remote_transfers_cost_ring_latency(self, model):
        cost = model.phase_cost(PhaseWork(name="r", remote_subpages=100))
        assert cost.remote_cycles == pytest.approx(100 * 175.0, rel=0.05)

    def test_contention_raises_latency(self, model):
        lone = model.phase_cost(PhaseWork(name="l", n_active=1, remote_subpages=1000))
        crowd = model.phase_cost(
            PhaseWork(name="c", n_active=32, remote_subpages=1000)
        )
        assert crowd.effective_remote_latency > lone.effective_remote_latency
        assert crowd.saturated

    def test_prefetch_hides_latency_behind_compute(self, model):
        base = PhaseWork(name="b", flops=200_000, remote_subpages=500)
        pf = PhaseWork(
            name="p", flops=200_000, remote_subpages=500, prefetch_overlap=0.8
        )
        c_base = model.phase_cost(base)
        c_pf = model.phase_cost(pf)
        assert c_pf.remote_cycles == pytest.approx(0.2 * c_base.remote_cycles, rel=0.01)

    def test_prefetch_cannot_hide_without_compute(self, model):
        """No compute to overlap with: the shortfall is re-exposed."""
        naked = PhaseWork(name="n", remote_subpages=500, prefetch_overlap=1.0)
        cost = model.phase_cost(naked)
        full = model.phase_cost(PhaseWork(name="f", remote_subpages=500))
        assert cost.remote_cycles == pytest.approx(full.remote_cycles, rel=0.01)

    def test_poststores_add_load_and_issue_cost(self, model):
        quiet = model.phase_cost(
            PhaseWork(name="q", n_active=32, flops=500_000, remote_subpages=200)
        )
        noisy = model.phase_cost(
            PhaseWork(
                name="n",
                n_active=32,
                flops=500_000,
                remote_subpages=200,
                poststores=5000,
            )
        )
        assert noisy.compute_cycles > quiet.compute_cycles
        assert noisy.ring_utilization > quiet.ring_utilization


class TestParallelTime:
    def test_max_of_processors(self, model):
        works = [
            PhaseWork(name="small", flops=100),
            PhaseWork(name="big", flops=10_000),
        ]
        assert model.parallel_time(works).name == "big"

    def test_empty_rejected(self, model):
        with pytest.raises(ConfigError):
            model.parallel_time([])


class TestPhaseWorkValidation:
    def test_bad_overlap(self):
        with pytest.raises(ConfigError):
            PhaseWork(name="x", prefetch_overlap=1.5)

    def test_bad_active(self):
        with pytest.raises(ConfigError):
            PhaseWork(name="x", n_active=0)

    def test_bad_scale(self):
        with pytest.raises(ConfigError):
            PhaseWork(name="x", stream_scale=0)

    def test_bad_conflict(self):
        with pytest.raises(ConfigError):
            PhaseWork(name="x", subcache_conflict_factor=0.5)


class TestBarrierCostModel:
    def test_single_proc_free(self):
        m = BarrierCostModel(MachineConfig.ksr1(32))
        assert m.barrier_cycles(1) == 0.0

    def test_grows_logarithmically(self):
        m = BarrierCostModel(MachineConfig.ksr1(32))
        t4, t32 = m.barrier_cycles(4), m.barrier_cycles(32)
        assert t4 < t32 < 3 * t4

    def test_matches_event_level_system_barrier(self):
        """The closed form must track the tier-1 simulation within 2x
        either way (it prices the same algorithm family)."""
        from repro.experiments.barriers import measure_barrier

        cfg = quiet_ksr1(16)
        closed = BarrierCostModel(cfg).barrier_seconds(16)
        simulated = measure_barrier("system", 16, machine_config=cfg, reps=6).seconds
        assert 0.5 < closed / simulated < 2.0

    def test_ring_crossing_jump(self):
        m = BarrierCostModel(MachineConfig.ksr2(64))
        assert m.barrier_cycles(40) > m.barrier_cycles(32) * 1.2

    def test_validation(self):
        m = BarrierCostModel(MachineConfig.ksr1(32))
        with pytest.raises(ConfigError):
            m.barrier_cycles(0)
