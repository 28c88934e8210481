"""Tests for all nine barrier algorithms.

Correctness is defined by the barrier property: no thread begins
episode e+1 work before every thread has arrived at episode e.  Each
thread records a per-episode timestamp *before* and *after* the
barrier; the property holds iff min(after, e) >= max(before, e).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.machine.api import SharedMemory
from repro.machine.ksr import KsrMachine
from repro.sim.process import LocalOps
from repro.sync.barriers import BARRIER_REGISTRY, make_barrier
from tests.conftest import quiet_ksr1, quiet_ksr2

ALL_BARRIERS = sorted(BARRIER_REGISTRY)


def run_barrier(name, n_procs, episodes=4, *, config=None, jitter=True, seed=17,
                use_poststore=True):
    """Run episodes; returns (before, after) timestamp tables."""
    cfg = config if config is not None else quiet_ksr1(max(2, n_procs), seed=seed)
    machine = KsrMachine(cfg)
    mem = SharedMemory(machine)
    barrier = make_barrier(name, mem, n_procs, use_poststore=use_poststore)
    before = {i: [] for i in range(n_procs)}
    after = {i: [] for i in range(n_procs)}

    def body(pid):
        for e in range(episodes):
            # uneven arrival times stress the algorithms
            yield LocalOps(37 * ((pid * 7 + e * 13) % 11) if jitter else 10)
            before[pid].append(machine.engine.now)
            yield from barrier.wait(pid, e)
            after[pid].append(machine.engine.now)

    for i in range(n_procs):
        machine.spawn(f"b{i}", body(i), i)
    machine.run()
    return before, after


def assert_barrier_property(before, after, n_procs, episodes):
    for e in range(episodes):
        last_arrival = max(before[i][e] for i in range(n_procs))
        first_exit = min(after[i][e] for i in range(n_procs))
        assert first_exit >= last_arrival, (
            f"episode {e}: a thread left at {first_exit} before the last "
            f"arrival at {last_arrival}"
        )


class TestCorrectness:
    @pytest.mark.parametrize("name", ALL_BARRIERS)
    def test_barrier_property_p8(self, name):
        before, after = run_barrier(name, 8, episodes=4)
        assert_barrier_property(before, after, 8, 4)

    @pytest.mark.parametrize("name", ALL_BARRIERS)
    def test_barrier_property_non_power_of_two(self, name):
        before, after = run_barrier(name, 7, episodes=3)
        assert_barrier_property(before, after, 7, 3)

    @pytest.mark.parametrize("name", ALL_BARRIERS)
    def test_barrier_property_p2(self, name):
        before, after = run_barrier(name, 2, episodes=3)
        assert_barrier_property(before, after, 2, 3)

    @pytest.mark.parametrize("name", ALL_BARRIERS)
    def test_single_thread_trivial(self, name):
        before, after = run_barrier(name, 1, episodes=2)
        assert len(after[0]) == 2

    @pytest.mark.parametrize("name", ["counter", "tournament(M)", "mcs"])
    def test_without_poststore_still_correct(self, name):
        before, after = run_barrier(name, 6, episodes=3, use_poststore=False)
        assert_barrier_property(before, after, 6, 3)

    @pytest.mark.parametrize("name", ["tree(M)", "mcs(M)", "dissemination"])
    def test_on_two_ring_ksr2(self, name):
        cfg = quiet_ksr2(64)
        before, after = run_barrier(name, 40, episodes=2, config=cfg)
        assert_barrier_property(before, after, 40, 2)

    @settings(max_examples=8, deadline=None)
    @given(
        name=st.sampled_from(["tournament", "mcs", "tree", "dissemination"]),
        n_procs=st.integers(min_value=2, max_value=13),
    )
    def test_barrier_property_fuzzed_sizes(self, name, n_procs):
        before, after = run_barrier(name, n_procs, episodes=3)
        assert_barrier_property(before, after, n_procs, 3)


class TestValidation:
    def test_unknown_name_rejected(self):
        machine = KsrMachine(quiet_ksr1(2))
        mem = SharedMemory(machine)
        with pytest.raises(ConfigError):
            make_barrier("fancy", mem, 2)

    def test_pid_out_of_range(self):
        machine = KsrMachine(quiet_ksr1(2))
        mem = SharedMemory(machine)
        barrier = make_barrier("counter", mem, 2)
        with pytest.raises(ConfigError):
            list(barrier.wait(5, 0))

    def test_zero_participants_rejected(self):
        machine = KsrMachine(quiet_ksr1(2))
        mem = SharedMemory(machine)
        with pytest.raises(ConfigError):
            make_barrier("counter", mem, 0)


class TestStructure:
    def test_registry_complete(self):
        assert set(BARRIER_REGISTRY) == {
            "counter",
            "tree",
            "tree(M)",
            "dissemination",
            "tournament",
            "tournament(M)",
            "mcs",
            "mcs(M)",
            "system",
        }

    def test_mcs_trees(self):
        machine = KsrMachine(quiet_ksr1(2))
        mem = SharedMemory(machine)
        from repro.sync.barriers.mcs import McsBarrier

        b = McsBarrier(mem, 16)
        assert b.arrival_children(0) == [1, 2, 3, 4]
        assert b.arrival_children(3) == [13, 14, 15]
        assert b.arrival_parent(7) == (1, 2)
        assert b.wakeup_children(0) == [1, 2]

    def test_mcs_child_flags_share_subpage(self):
        """The deliberate false sharing of the 4-child arrival word."""
        machine = KsrMachine(quiet_ksr1(2))
        mem = SharedMemory(machine)
        from repro.sync.barriers.mcs import McsBarrier

        b = McsBarrier(mem, 8)
        subpages = {addr // 128 for addr in b.child_flags[0]}
        assert len(subpages) == 1

    def test_tournament_flags_padded(self):
        """Tournament flags must NOT share subpages (no false sharing)."""
        machine = KsrMachine(quiet_ksr1(2))
        mem = SharedMemory(machine)
        from repro.sync.barriers.tournament import TournamentBarrier

        b = TournamentBarrier(mem, 8)
        all_flags = [a for r in b.arrival for a in r.values()] + b.wakeup
        subpages = [a // 128 for a in all_flags]
        assert len(set(subpages)) == len(subpages)

    def test_rounds_for(self):
        from repro.sync.barriers.base import BarrierAlgorithm

        assert BarrierAlgorithm.rounds_for(1) == 0
        assert BarrierAlgorithm.rounds_for(2) == 1
        assert BarrierAlgorithm.rounds_for(5) == 3
        assert BarrierAlgorithm.rounds_for(32) == 5


class TestPerformanceShape:
    """The orderings the paper's Figure 4 establishes, at modest P so
    the suite stays fast; the full sweep lives in the benchmarks."""

    def _times(self, names, n_procs=16):
        from repro.experiments.barriers import measure_barrier

        return {n: measure_barrier(n, n_procs, reps=6).seconds for n in names}

    def test_global_wakeup_beats_tree_wakeup(self):
        t = self._times(["tournament", "tournament(M)", "tree", "tree(M)"])
        assert t["tournament(M)"] < t["tournament"]
        assert t["tree(M)"] < t["tree"]

    def test_counter_is_worst_at_scale(self):
        t = self._times(["counter", "tournament(M)", "dissemination"], n_procs=32)
        assert t["counter"] > t["dissemination"] > t["tournament(M)"]

    def test_tournament_m_flat(self):
        """The winning curve stays nearly flat as P doubles."""
        from repro.experiments.barriers import measure_barrier

        t8 = measure_barrier("tournament(M)", 8, reps=6).seconds
        t32 = measure_barrier("tournament(M)", 32, reps=6).seconds
        assert t32 / t8 < 2.2

    def test_counter_grows_steeply(self):
        from repro.experiments.barriers import measure_barrier

        t8 = measure_barrier("counter", 8, reps=6).seconds
        t32 = measure_barrier("counter", 32, reps=6).seconds
        assert t32 / t8 > 3.0
