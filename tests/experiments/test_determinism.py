"""Determinism tests: same seed, same results; different seed, details
differ.  Reproducibility is a core property of the simulator — every
number in EXPERIMENTS.md should be regenerable bit-for-bit.
"""

from repro.experiments.barriers import measure_barrier
from repro.experiments.latency import measure_latencies
from repro.experiments.locks import measure_lock
from repro.kernels.cg import CgKernel
from repro.machine.config import MachineConfig


class TestSameSeedSameResult:
    def test_barrier_measurement(self):
        a = measure_barrier("tournament(M)", 8, reps=5, seed=42).seconds
        b = measure_barrier("tournament(M)", 8, reps=5, seed=42).seconds
        assert a == b

    def test_latency_measurement(self):
        a = measure_latencies(4, "network", "read", seed=42, samples=200)
        b = measure_latencies(4, "network", "read", seed=42, samples=200)
        assert a.mean_latency_s == b.mean_latency_s

    def test_lock_measurement(self):
        a = measure_lock("rw", 4, 0.5, ops=8, seed=42).seconds
        b = measure_lock("rw", 4, 0.5, ops=8, seed=42).seconds
        assert a == b

    def test_kernel_model(self):
        k1 = CgKernel(MachineConfig.ksr1(8, seed=42), n=600, nnz_target=30_000)
        k2 = CgKernel(MachineConfig.ksr1(8, seed=42), n=600, nnz_target=30_000)
        assert k1.run(8).time_s == k2.run(8).time_s


class TestSeedsMatter:
    def test_barrier_jitter_differs(self):
        a = measure_barrier("tournament(M)", 8, reps=5, seed=1).seconds
        b = measure_barrier("tournament(M)", 8, reps=5, seed=2).seconds
        assert a != b

    def test_but_only_slightly(self):
        """Seeds perturb slot jitter, not the physics: results across
        seeds agree within a few percent."""
        times = [measure_barrier("tree(M)", 8, reps=5, seed=s).seconds for s in range(5)]
        assert max(times) / min(times) < 1.15
