"""End-to-end protocol behaviour, exercised through a small machine.

These are the tests that pin the architecture effects the paper's
experiments rely on: invalidation costs, snarfing, poststore semantics,
get_subpage serialization and ring-order (non-FCFS) grants.
"""

import pytest

from repro.coherence.litmus import run_schedule
from repro.errors import DeadlockError
from repro.machine.api import SharedMemory
from repro.machine.ksr import KsrMachine
from repro.memory.local_cache import SubpageState
from repro.sim.process import (
    Compute,
    Fence,
    GetSubpage,
    Poststore,
    Prefetch,
    Read,
    ReleaseSubpage,
    WaitUntil,
    Write,
)
from tests.conftest import quiet_ksr1


def fresh(n_cells=4, seed=7):
    m = KsrMachine(quiet_ksr1(n_cells, seed=seed))
    return m, SharedMemory(m)


def time_ops(machine, cell_id, ops):
    """Run a list of ops on one cell; return elapsed cycles."""

    def body():
        for op in ops:
            yield op

    p = machine.spawn("timed", body(), cell_id)
    machine.run()
    return p.elapsed


class TestReadWriteLatencies:
    def test_second_read_is_subcache_hit(self):
        m, mem = fresh()
        a = mem.alloc_word()

        def body():
            yield Read(a)
            t0 = m.engine.now
            yield Read(a)
            return m.engine.now - t0

        p = m.spawn("t", body(), 0)
        m.run()
        assert p.result == pytest.approx(2.0)

    def test_remote_read_costs_ring_latency(self):
        m, mem = fresh()
        a = mem.alloc_word()
        time_ops(m, 0, [Write(a, 5)])  # cell 0 owns the data
        elapsed = time_ops(m, 1, [Read(a)])
        assert 175.0 <= elapsed <= 175.0 + 130.0  # latency + page alloc + jitter

    def test_remote_write_more_expensive_than_remote_read(self):
        """Figure 2: writes sit slightly above reads."""
        m1, mem1 = fresh(seed=11)
        a = mem1.alloc_word()
        time_ops(m1, 0, [Write(a, 1)])
        read_cost = time_ops(m1, 1, [Read(a)])

        m2, mem2 = fresh(seed=11)
        b = mem2.alloc_word()
        time_ops(m2, 0, [Write(b, 1)])
        write_cost = time_ops(m2, 1, [Write(b, 2)])
        assert write_cost > read_cost

    def test_read_returns_last_written_value(self):
        m, mem = fresh()
        a = mem.alloc_word()
        time_ops(m, 0, [Write(a, 1234)])

        def body():
            v = yield Read(a)
            return v

        p = m.spawn("r", body(), 2)
        m.run()
        assert p.result == 1234


class TestCopyStates:
    """The per-cell copy states the protocol leaves behind, as cache
    and directory both report them."""

    @staticmethod
    def _states(*steps):
        outcome = run_schedule(steps, n_cells=2, n_vars=1)
        assert outcome.completed, outcome.diagnostics
        assert outcome.cache_states == outcome.directory_states
        return outcome.cache_states[0]

    def test_cold_read_allocates_exclusive(self):
        # COMA first touch: the page is allocated, owned, by the reader
        assert self._states(("read", 0, 0)) == ("EXCLUSIVE", None)

    def test_get_subpage_holds_atomic_until_release(self):
        taken = (("read", 1, 0), ("gsp", 0, 0))
        assert self._states(*taken) == ("ATOMIC", "INVALID")
        assert self._states(*taken, ("rsp", 0, 0)) == ("EXCLUSIVE", "INVALID")


class TestInvalidation:
    def test_write_invalidates_sharers(self):
        m, mem = fresh()
        a = mem.alloc_word()
        sp = a // 128
        time_ops(m, 0, [Write(a, 1)])
        time_ops(m, 1, [Read(a)])
        time_ops(m, 2, [Read(a)])
        assert m.cells[1].local_cache.is_valid(sp)
        time_ops(m, 3, [Write(a, 2)])
        assert not m.cells[1].local_cache.is_valid(sp)
        assert not m.cells[2].local_cache.is_valid(sp)
        assert m.cells[1].local_cache.contains(sp)  # place-holder remains
        assert m.total_perf().invalidations_received >= 2

    def test_reread_after_invalidation_is_remote(self):
        m, mem = fresh()
        a = mem.alloc_word()
        time_ops(m, 1, [Read(a)])
        time_ops(m, 0, [Write(a, 9)])
        cost = time_ops(m, 1, [Read(a)])
        assert cost > 170.0


class TestSnarfing:
    def test_spinners_wake_from_one_write(self):
        m, mem = fresh()
        flag = mem.alloc_word()

        def spinner():
            v = yield WaitUntil(flag, lambda x: x == 1)
            return v

        def writer():
            yield Compute(5000)
            yield Write(flag, 1)

        spinners = [m.spawn(f"s{i}", spinner(), i) for i in (1, 2, 3)]
        m.spawn("w", writer(), 0)
        m.run()
        assert all(p.result == 1 for p in spinners)
        wake_times = sorted(p.finished_at for p in spinners)
        # all spinners wake within a fraction of a circuit of each other
        assert wake_times[-1] - wake_times[0] < m.config.ring.circuit_cycles

    def test_snarf_counter_incremented(self):
        m, mem = fresh()
        a = mem.alloc_word()
        time_ops(m, 0, [Write(a, 1)])
        time_ops(m, 1, [Read(a)])
        time_ops(m, 2, [Read(a)])
        time_ops(m, 0, [Write(a, 2)])  # both readers invalidated

        # a single re-read by cell 1 revalidates cell 2's place-holder
        time_ops(m, 1, [Read(a)])
        assert m.cells[2].local_cache.is_valid(a // 128)
        assert m.total_perf().snarfs >= 1


class TestPoststore:
    def test_poststore_issuer_continues_quickly(self):
        m, mem = fresh()
        a = mem.alloc_word()
        time_ops(m, 0, [Write(a, 1)])
        cost = time_ops(m, 0, [Poststore(a)])
        # issuer stalls only for the local-cache writeback
        assert cost <= m.config.latency.poststore_issue_cycles + 1

    def test_poststore_delivers_to_placeholders(self):
        m, mem = fresh()
        a = mem.alloc_word()
        sp = a // 128
        time_ops(m, 1, [Read(a)])
        time_ops(m, 0, [Write(a, 7)])  # invalidates cell 1
        assert not m.cells[1].local_cache.is_valid(sp)
        time_ops(m, 0, [Poststore(a)])
        assert m.cells[1].local_cache.is_valid(sp)

    def test_poststore_demotes_issuer_to_shared(self):
        """The SP-hurting semantics: after poststore the issuer's next
        write pays an upgrade again."""
        m, mem = fresh()
        a = mem.alloc_word()
        sp = a // 128
        time_ops(m, 0, [Write(a, 1), Poststore(a)])
        m.run()
        assert m.cells[0].local_cache.state_of(sp) is SubpageState.SHARED
        upgrade_cost = time_ops(m, 0, [Write(a, 2)])
        assert upgrade_cost > 100.0  # ring upgrade, not a local write

    def test_poststore_wakes_spinner_without_refetch(self):
        m, mem = fresh()
        flag = mem.alloc_word()

        def spinner():
            yield WaitUntil(flag, lambda x: x == 1)

        def writer():
            yield Compute(3000)
            yield Write(flag, 1)
            yield Poststore(flag)

        s = m.spawn("s", spinner(), 1)
        w = m.spawn("w", writer(), 0)
        m.run()
        assert s.finished and w.finished


class TestGetSubpage:
    def test_mutual_exclusion_serializes_increments(self):
        m, mem = fresh()
        counter = mem.alloc_word()
        lock = mem.alloc_word()

        def incrementer():
            for _ in range(10):
                yield GetSubpage(lock)
                v = yield Read(counter)
                yield Write(counter, v + 1)
                yield ReleaseSubpage(lock)

        for i in range(4):
            m.spawn(f"inc{i}", incrementer(), i)
        m.run()
        assert mem.peek(counter) == 40

    def test_gsp_retries_counted(self):
        m, mem = fresh()
        lock = mem.alloc_word()

        def holder():
            yield GetSubpage(lock)
            yield Compute(5000)
            yield ReleaseSubpage(lock)

        def contender():
            yield Compute(100)  # let the holder win
            yield GetSubpage(lock)
            yield ReleaseSubpage(lock)

        m.spawn("h", holder(), 0)
        m.spawn("c", contender(), 1)
        m.run()
        assert m.cells[1].perfmon.get_subpage_retries >= 1

    def test_grant_follows_ring_order_not_fcfs(self):
        """Hardware grants the released subpage in ring order after the
        releaser — cell 1 beats cell 3 even when 3 asked first."""
        m, mem = fresh(n_cells=4)
        lock = mem.alloc_word()
        order = []

        def holder():
            yield GetSubpage(lock)
            yield Compute(8000)
            yield ReleaseSubpage(lock)

        def contender(tag, delay):
            def body():
                yield Compute(delay)
                yield GetSubpage(lock)
                order.append(tag)
                yield ReleaseSubpage(lock)

            return body()

        m.spawn("h", holder(), 0)
        m.spawn("late-but-near", contender("cell1", 2000), 1)
        m.spawn("early-but-far", contender("cell3", 500), 3)
        m.run()
        assert order == ["cell1", "cell3"]


class TestPrefetch:
    def test_prefetch_hides_remote_latency(self):
        m, mem = fresh()
        a = mem.alloc_word()
        time_ops(m, 0, [Write(a, 3)])

        def with_prefetch():
            yield Prefetch(a)
            yield Compute(400)  # enough to cover the fill
            t0 = m.engine.now
            yield Read(a)
            return m.engine.now - t0

        p = m.spawn("pf", with_prefetch(), 1)
        m.run()
        assert p.result < 50.0  # local hit, not a 175-cycle miss

    def test_demand_read_waits_for_inflight_prefetch(self):
        m, mem = fresh()
        a = mem.alloc_word()
        time_ops(m, 0, [Write(a, 3)])

        def body():
            yield Prefetch(a)
            t0 = m.engine.now
            v = yield Read(a)  # fill still in flight
            return (m.engine.now - t0, v)

        p = m.spawn("pf", body(), 1)
        m.run()
        waited, value = p.result
        assert value == 3
        assert 20.0 < waited < 250.0

    def test_fence_drains_prefetches(self):
        m, mem = fresh()
        a = mem.alloc_word()
        time_ops(m, 0, [Write(a, 3)])
        elapsed = time_ops(m, 1, [Prefetch(a), Fence()])
        assert elapsed >= 170.0


class TestDeadlockDetection:
    def test_unsatisfied_spin_reported(self):
        m, mem = fresh()
        flag = mem.alloc_word()

        def spinner():
            yield WaitUntil(flag, lambda x: x == 99)

        m.spawn("s", spinner(), 0)
        with pytest.raises(DeadlockError, match="spin"):
            m.run()
