"""Tests for machine assembly and run control."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.machine.api import SharedMemory
from repro.machine.ksr import KsrMachine
from repro.sim.process import Compute, Read, WaitUntil, Write
from repro.sim.tracing import Trace
from tests.conftest import quiet_ksr1


class TestAssembly:
    def test_one_cell_per_processor(self, ksr1_config):
        m = KsrMachine(ksr1_config)
        assert len(m.cells) == ksr1_config.n_cells
        assert [c.cell_id for c in m.cells] == list(range(4))

    def test_determinism_across_instances(self):
        def run_once():
            m = KsrMachine(quiet_ksr1(4, seed=99))
            mem = SharedMemory(m)
            a = mem.alloc_word()

            def writer():
                yield Write(a, 1)

            def reader():
                yield WaitUntil(a, lambda v: v == 1)
                yield Read(a)

            m.spawn("w", writer(), 0)
            p = m.spawn("r", reader(), 1)
            m.run()
            return p.finished_at

        assert run_once() == run_once()

    def test_seed_changes_timing_details(self):
        def final_time(seed):
            m = KsrMachine(quiet_ksr1(4, seed=seed))
            mem = SharedMemory(m)
            a = mem.alloc_word()

            def writer():
                yield Write(a, 1)

            def reader():
                yield WaitUntil(a, lambda v: v == 1)

            m.spawn("w", writer(), 0)
            p = m.spawn("r", reader(), 1)
            m.run()
            return p.finished_at

        # jitter draws differ; identical timings would mean the seeds
        # are ignored
        assert final_time(1) != final_time(2)


class TestRunControl:
    def test_spawn_validates_cell(self, machine):
        def body():
            yield Compute(1)

        with pytest.raises(SimulationError):
            machine.spawn("t", body(), cell_id=99)

    def test_run_until(self, machine):
        def body():
            yield Compute(1000)

        p = machine.spawn("t", body(), 0)
        machine.run(until=500)
        assert not p.finished
        machine.run()
        assert p.finished

    def test_compute_only_thread_timing(self, machine):
        def body():
            yield Compute(123)
            yield Compute(77)

        p = machine.spawn("t", body(), 0)
        machine.run()
        assert p.elapsed == pytest.approx(200.0)

    def test_deadlock_names_the_thread(self, machine):
        mem = SharedMemory(machine)
        a = mem.alloc_word()

        def stuck():
            yield WaitUntil(a, lambda v: v == 42)

        machine.spawn("stucky", stuck(), 1)
        with pytest.raises(DeadlockError, match="stucky"):
            machine.run()

    def test_non_op_yield_rejected(self, machine):
        def bad():
            yield "not an op"

        machine.spawn("bad", bad(), 0)
        with pytest.raises(SimulationError, match="must yield Op"):
            machine.run()


class TestCopy:
    """``KsrMachine.copy`` forks an idle machine into two that run alike."""

    @staticmethod
    def _prefixed(n_cells=4):
        """A machine whose cells each wrote their own array, now idle."""
        m = KsrMachine(quiet_ksr1(n_cells, seed=11))
        mem = SharedMemory(m)
        arrays = [mem.page_array(f"A{i}", 512) for i in range(n_cells)]

        def touch(arr):
            for word in range(0, len(arr), 16):
                yield Write(arr.addr(word), word)

        for i, arr in enumerate(arrays):
            m.spawn(f"touch-{i}", touch(arr), i)
        m.run()
        return m, arrays

    @staticmethod
    def _continue(m, arrays):
        """Every cell reads its neighbour's array (ring traffic, jitter
        and random replacement draws); returns what the run shows."""

        def reads(arr):
            total = 0
            for word in range(0, len(arr), 8):
                total += yield Read(arr.addr(word))
            return total

        procs = [
            m.spawn(f"read-{i}", reads(arrays[(i + 1) % len(arrays)]), i)
            for i in range(len(arrays))
        ]
        m.run()
        return (
            [(p.finished_at, p.result) for p in procs],
            m.total_perf().snapshot(),
            m.engine.events_fired,
        )

    def test_copy_and_original_continue_alike(self):
        m, arrays = self._prefixed()
        copy = m.copy()
        assert copy is not m and copy.now_cycles == m.now_cycles
        from_copy = self._continue(copy, arrays)
        from_original = self._continue(m, arrays)
        assert from_copy == from_original
        assert from_copy[1]["ring_transactions"] > 0

    def test_copy_leaves_finished_threads_behind(self):
        m, _ = self._prefixed()
        assert len(m.processes) == 4
        copy = m.copy()
        assert copy.processes == []
        assert all(cell.current_process is None for cell in copy.cells)

    def test_refuses_queued_events(self, machine):
        def body():
            yield Compute(1000)

        machine.spawn("t", body(), 0)
        with pytest.raises(SimulationError, match="queued event"):
            machine.copy()
        machine.run(until=500)
        with pytest.raises(SimulationError, match="queued event"):
            machine.copy()

    def test_refuses_an_unfinished_thread(self, machine):
        a = SharedMemory(machine).alloc_word()

        def stuck():
            yield WaitUntil(a, lambda v: v == 42)

        machine.spawn("stucky", stuck(), 1)
        with pytest.raises(DeadlockError):
            machine.run()
        assert not machine.engine.pending
        with pytest.raises(SimulationError, match="unfinished threads.*stucky"):
            machine.copy()


class TestObservation:
    def test_clock_conversion(self, machine):
        def body():
            yield Compute(2000)

        machine.spawn("t", body(), 0)
        machine.run()
        assert machine.now_seconds == pytest.approx(2000 * 50e-9)

    def test_perf_aggregation_and_reset(self, machine):
        mem = SharedMemory(machine)
        a = mem.alloc_word()

        def w():
            yield Write(a, 1)

        machine.spawn("w", w(), 0)
        machine.run()

        def r():
            yield Read(a)

        machine.spawn("r", r(), 1)
        machine.run()
        total = machine.total_perf()
        assert total.ring_transactions >= 1
        machine.reset_perf()
        assert machine.total_perf().ring_transactions == 0

    def test_trace_attachment(self):
        trace = Trace()
        m = KsrMachine(quiet_ksr1(2), trace=trace)
        mem = SharedMemory(m)
        a = mem.alloc_word()

        def body():
            yield Write(a, 1)
            yield Read(a)

        m.spawn("t", body(), 0)
        m.run()
        kinds = [r.kind for r in trace]
        assert "write" in kinds and "read" in kinds
