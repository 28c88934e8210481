"""Tests for the lock algorithms: mutual exclusion, FCFS, read combining."""

import pytest

from repro.errors import ConfigError
from repro.machine.api import SharedMemory
from repro.machine.ksr import KsrMachine
from repro.sim.process import Compute, LocalOps, Read, Write
from repro.sync.locks import (
    HardwareExclusiveLock,
    LockWorkloadParams,
    TicketReadWriteLock,
    run_lock_workload,
)
from tests.conftest import quiet_ksr1


def fresh(n_cells=4, seed=9):
    m = KsrMachine(quiet_ksr1(n_cells, seed=seed))
    return m, SharedMemory(m)


def _critical_increment(machine, mem, lock, n_threads, rounds, *, mode="write"):
    """Spawn incrementers protected by ``lock``; return final counter."""
    counter = mem.alloc_word()

    def body(pid):
        for _ in range(rounds):
            if mode == "write":
                yield from lock.acquire_write(pid)
            else:
                yield from lock.acquire_read(pid)
            v = yield Read(counter)
            yield Compute(50)  # widen the race window
            yield Write(counter, v + 1)
            if mode == "write":
                yield from lock.release_write(pid)
            else:
                yield from lock.release_read(pid)

    for i in range(n_threads):
        machine.spawn(f"inc-{i}", body(i), i)
    machine.run()
    return mem.peek(counter)


class TestHardwareLock:
    def test_mutual_exclusion(self):
        m, mem = fresh()
        lock = HardwareExclusiveLock(mem)
        assert _critical_increment(m, mem, lock, 4, 10) == 40

    def test_shared_mode_degrades_to_exclusive(self):
        """No read concurrency on the hardware primitive: increments
        under 'read' locks are still correct because they serialize."""
        m, mem = fresh()
        lock = HardwareExclusiveLock(mem)
        assert _critical_increment(m, mem, lock, 4, 10, mode="read") == 40


class TestTicketRwLock:
    def test_writer_mutual_exclusion(self):
        m, mem = fresh()
        lock = TicketReadWriteLock(mem)
        assert _critical_increment(m, mem, lock, 4, 10) == 40

    def test_fcfs_among_writers(self):
        """Tickets are served strictly in acquisition order, unlike the
        ring-ordered hardware grants."""
        m, mem = fresh()
        lock = TicketReadWriteLock(mem)
        order = []

        def body(pid, delay):
            def gen():
                yield Compute(delay)
                yield from lock.acquire_write(pid)
                order.append(pid)
                yield LocalOps(2000)
                yield from lock.release_write(pid)

            return gen()

        # staggered requests: 2 asks first, then 0, then 3, then 1
        delays = {2: 100, 0: 3000, 3: 6000, 1: 9000}
        for pid, d in delays.items():
            m.spawn(f"w{pid}", body(pid, d), pid)
        m.run()
        assert order == [2, 0, 3, 1]

    def test_readers_share(self):
        """Concurrent readers hold the lock simultaneously."""
        m, mem = fresh()
        lock = TicketReadWriteLock(mem)
        active = {"now": 0, "peak": 0}

        def reader(pid):
            yield Compute(10 * pid)
            yield from lock.acquire_read(pid)
            active["now"] += 1
            active["peak"] = max(active["peak"], active["now"])
            yield LocalOps(5000)
            active["now"] -= 1
            yield from lock.release_read(pid)

        for i in range(4):
            m.spawn(f"r{i}", reader(i), i)
        m.run()
        assert active["peak"] >= 2  # combining actually happened
        assert active["now"] == 0

    def test_writer_waits_for_all_readers(self):
        m, mem = fresh()
        lock = TicketReadWriteLock(mem)
        log = []

        def reader(pid):
            yield from lock.acquire_read(pid)
            log.append(("r-in", pid))
            yield LocalOps(4000)
            log.append(("r-out", pid))
            yield from lock.release_read(pid)

        def writer(pid):
            yield Compute(500)  # readers first
            yield from lock.acquire_write(pid)
            log.append(("w-in", pid))
            yield from lock.release_write(pid)

        m.spawn("r0", reader(0), 0)
        m.spawn("r1", reader(1), 1)
        m.spawn("w", writer(2), 2)
        m.run()
        w_index = log.index(("w-in", 2))
        assert ("r-out", 0) in log[:w_index]
        assert ("r-out", 1) in log[:w_index]

    def test_reader_after_writer_is_fenced(self):
        """A reader requesting after a writer must wait (FCFS), not
        join the earlier read group."""
        m, mem = fresh()
        lock = TicketReadWriteLock(mem)
        order = []

        def early_reader():
            yield from lock.acquire_read(0)
            order.append("r0-in")
            yield LocalOps(8000)
            order.append("r0-out")
            yield from lock.release_read(0)

        def writer():
            yield Compute(1000)
            yield from lock.acquire_write(1)
            order.append("w-in")
            yield from lock.release_write(1)

        def late_reader():
            yield Compute(2000)
            yield from lock.acquire_read(2)
            order.append("r2-in")
            yield from lock.release_read(2)

        m.spawn("r0", early_reader(), 0)
        m.spawn("w", writer(), 1)
        m.spawn("r2", late_reader(), 2)
        m.run()
        assert order.index("w-in") < order.index("r2-in")

    @pytest.mark.parametrize("n_cells, ring", [(4, 256), (256, 256), (320, 320)])
    def test_counter_ring_has_a_counter_per_cell(self, n_cells, ring):
        _, mem = fresh(n_cells)
        assert TicketReadWriteLock(mem).ring_size == ring

    def test_more_readers_than_the_ring_floor_finish(self):
        # 320 processors at a 20 % read share once hold tickets 256
        # apart; with a 256-entry ring they shared a counter and deadlocked.
        from repro.experiments.locks import measure_lock

        assert measure_lock("rw", 320, 0.2, ops=1).seconds > 0


class TestWorkload:
    def test_params_validation(self):
        with pytest.raises(ConfigError):
            LockWorkloadParams(ops_per_processor=0)
        with pytest.raises(ConfigError):
            LockWorkloadParams(read_fraction=1.5)
        with pytest.raises(ConfigError):
            LockWorkloadParams(hold_local_ops=-1)

    def test_workload_counts(self):
        m, mem = fresh()
        lock = TicketReadWriteLock(mem)
        params = LockWorkloadParams(ops_per_processor=5, read_fraction=0.5, seed=3)
        result = run_lock_workload(m, lock, params, n_threads=4)
        assert result.n_acquisitions == 20
        assert 0 < result.n_read_acquisitions < 20
        assert result.total_seconds > 0

    def test_exclusive_grows_with_processors(self):
        """Figure 3's headline: in the lock-bound regime (P >= 8, where
        the critical sections fully serialize), total time grows about
        linearly with the processor count."""

        def total(n):
            m, mem = fresh(n_cells=n, seed=11)
            lock = HardwareExclusiveLock(mem)
            params = LockWorkloadParams(ops_per_processor=10)
            return run_lock_workload(m, lock, params, n_threads=n).total_seconds

        t8, t32 = total(8), total(32)
        assert 2.8 < t32 / t8 < 5.5

    def test_read_sharing_beats_exclusive(self):
        """Readers-only software lock clearly beats the hardware lock."""
        n = 8
        m1, mem1 = fresh(n_cells=n, seed=13)
        hw = HardwareExclusiveLock(mem1)
        t_hw = run_lock_workload(
            m1, hw, LockWorkloadParams(ops_per_processor=10, read_fraction=1.0)
        ).total_seconds
        m2, mem2 = fresh(n_cells=n, seed=13)
        sw = TicketReadWriteLock(mem2)
        t_sw = run_lock_workload(
            m2, sw, LockWorkloadParams(ops_per_processor=10, read_fraction=1.0)
        ).total_seconds
        assert t_sw < 0.8 * t_hw
