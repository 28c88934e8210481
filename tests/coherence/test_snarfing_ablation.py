"""Tests for the read-snarfing ablation knob."""

from dataclasses import replace

from repro.experiments.barriers import measure_barrier
from repro.machine.api import SharedMemory
from repro.machine.ksr import KsrMachine
from repro.sim.process import Compute, Read, WaitUntil, Write
from tests.conftest import quiet_ksr1


def machine_without_snarfing(n=4, seed=7):
    return KsrMachine(replace(quiet_ksr1(n, seed=seed), enable_snarfing=False))


class TestKnob:
    def test_no_snarfs_counted_when_disabled(self):
        m = machine_without_snarfing()
        mem = SharedMemory(m)
        a = mem.alloc_word()

        def writer():
            yield Write(a, 1)

        def reader(pid):
            def body():
                yield Compute(100 * pid)
                yield Read(a)

            return body()

        m.spawn("w", writer(), 0)
        for pid in (1, 2, 3):
            m.spawn(f"r{pid}", reader(pid), pid)
        m.run()
        assert m.total_perf().snarfs == 0

    def test_spinners_still_wake_correctly(self):
        m = machine_without_snarfing()
        mem = SharedMemory(m)
        flag = mem.alloc_word()

        def spinner(pid):
            def body():
                v = yield WaitUntil(flag, lambda x: x == 1)
                return v

            return body()

        def writer():
            yield Compute(2000)
            yield Write(flag, 1)

        spinners = [m.spawn(f"s{i}", spinner(i), i) for i in (1, 2, 3)]
        m.spawn("w", writer(), 0)
        m.run()
        assert all(p.result == 1 for p in spinners)
        # wakeups serialize: the spread exceeds one ring latency
        times = sorted(p.finished_at for p in spinners)
        assert times[-1] - times[0] >= m.config.remote_latency_cycles

    def test_global_flag_barrier_pays_for_missing_snarf(self):
        base = quiet_ksr1(16)
        with_snarf = measure_barrier("tree(M)", 16, machine_config=base, reps=6).seconds
        without = measure_barrier(
            "tree(M)",
            16,
            machine_config=replace(base, enable_snarfing=False),
            reps=6,
        ).seconds
        assert without > 1.5 * with_snarf
