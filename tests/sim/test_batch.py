"""Retry batching: byte-identity, fallbacks, accounting.

The contract of :mod:`repro.ring.batch` is that a batched run is
indistinguishable from a per-event run in everything except wall-clock:
same fire times in the same order, same RNG consumption, same counters,
same final state.  These tests drive full :class:`KsrMachine` lock
workloads (the retry chains the batcher advances in closed form) on the
default machine and on its per-event reference (the machine's
``BatchAdvancer.batchable`` predicate made to refuse) and compare
everything observable.
"""

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.machine.api import SharedMemory
from repro.machine.config import MachineConfig
from repro.machine.ksr import KsrMachine
from repro.sim.engine import Engine
from repro.sim.process import LocalOps
from repro.sync.locks import (
    HardwareExclusiveLock,
    LockWorkloadParams,
    TicketReadWriteLock,
    run_lock_workload,
)


def _lock_machine(batching: bool, *, n_procs: int = 6, seed: int = 11) -> KsrMachine:
    """The default machine, or without ``batching`` its per-event reference."""
    machine = KsrMachine(MachineConfig.ksr1(n_cells=n_procs, seed=seed))
    if not batching:
        machine.protocol.batch_advancer.batchable = lambda: False
    return machine


def _run_lock(
    machine: KsrMachine,
    *,
    n_procs: int = 6,
    ops: int = 4,
    seed: int = 11,
    kind: str = "hardware",
) -> list[float]:
    """Run the contended lock workload recording every event fire time."""
    history: list[float] = []
    machine.engine.probe = history.append
    mem = SharedMemory(machine)
    lock = HardwareExclusiveLock(mem) if kind == "hardware" else TicketReadWriteLock(mem)
    params = LockWorkloadParams(ops_per_processor=ops, read_fraction=0.0, seed=seed)
    run_lock_workload(machine, lock, params, n_threads=n_procs)
    return history


def _contended_body(lock, pid: int, ops: int):
    """A minimal write-lock loop (used where the run is cut short by a
    budget or horizon, so the stock workload's completion bookkeeping
    would raise)."""
    for _ in range(ops):
        yield LocalOps(100)
        yield from lock.acquire_write(pid)
        yield LocalOps(50)
        yield from lock.release_write(pid)


def _state(machine: KsrMachine) -> dict:
    """Everything a per-event and batched run must agree on."""
    rings = [
        (r.n_transactions, r.total_wait_cycles, r.total_transit_cycles)
        for r in machine.hierarchy.leaf_rings
    ]
    return {
        "now": machine.engine.now,
        "events": machine.engine.stats.events_fired,
        "perfmon": machine.total_perf().snapshot(),
        "rings": rings,
        "elapsed": [p.elapsed if p.finished else None for p in machine.processes],
    }


class TestByteIdentity:
    def test_lock_workload_history_identical(self):
        off = _lock_machine(False)
        hist_off = _run_lock(off)
        on = _lock_machine(True)
        hist_on = _run_lock(on)
        assert hist_on == hist_off  # same times, same order, same count
        assert _state(on) == _state(off)
        assert off.engine.stats.batched_events == 0
        assert on.engine.stats.batched_events > 0

    def test_rw_lock_history_identical(self):
        off = _lock_machine(False)
        hist_off = _run_lock(off, kind="rw")
        on = _lock_machine(True)
        hist_on = _run_lock(on, kind="rw")
        assert hist_on == hist_off
        assert _state(on) == _state(off)

    def test_batched_events_are_a_subset(self):
        on = _lock_machine(True)
        _run_lock(on)
        stats = on.engine.stats
        assert 0 < stats.batched_events <= stats.events_fired


class TestRunBoundaries:
    """Budgets and horizons must cut a window exactly where per-event
    dispatch would stop."""

    @pytest.mark.parametrize("max_events", [100, 777, 2001])
    def test_max_events_boundary(self, max_events):
        states = []
        for batching in (False, True):
            machine = _lock_machine(batching)
            history: list[float] = []
            machine.engine.probe = history.append
            mem = SharedMemory(machine)
            lock = HardwareExclusiveLock(mem)
            for pid in range(6):
                machine.spawn(f"w{pid}", _contended_body(lock, pid, 40), cell_id=pid)
            machine.engine.run(max_events=max_events)
            assert machine.engine.stats.events_fired == max_events
            states.append((history, _state(machine)))
        assert states[0] == states[1]

    def test_until_boundary(self):
        states = []
        for batching in (False, True):
            machine = _lock_machine(batching)
            history: list[float] = []
            machine.engine.probe = history.append
            mem = SharedMemory(machine)
            lock = HardwareExclusiveLock(mem)
            for pid in range(6):
                machine.spawn(f"w{pid}", _contended_body(lock, pid, 4), cell_id=pid)
            machine.engine.run(until=50_000.0)
            assert machine.engine.now == pytest.approx(50_000.0)
            states.append((history, _state(machine)))
        assert states[0] == states[1]


class TestFallbacks:
    def test_audit_hook_forces_per_event_anchors(self):
        """With an audit hook every fire is a real event (the auditors
        need Event objects), and the run is still identical."""
        baseline = _lock_machine(False)
        hist_base = _run_lock(baseline)

        audited = _lock_machine(True)
        seen = []
        audited.engine.audit_hook = lambda event: seen.append(event.time)
        hist_audited = _run_lock(audited)
        assert audited.engine.stats.batched_events == 0
        assert hist_audited == hist_base
        assert len(seen) == len(hist_base)

    def test_audit_hook_installed_mid_run_falls_back_at_fire_time(self):
        """Chains started batched fire one real event per retry once an
        audit hook appears, and the whole run still matches the reference."""
        runs = []
        for batching in (False, True):
            machine = _lock_machine(batching)
            history: list[float] = []
            machine.engine.probe = history.append
            mem = SharedMemory(machine)
            lock = HardwareExclusiveLock(mem)
            for pid in range(6):
                machine.spawn(f"w{pid}", _contended_body(lock, pid, 4), cell_id=pid)
            machine.engine.run(until=4_000.0)
            anchor_cb = machine.protocol.batch_advancer._anchor_cb
            anchors = [e for e in machine.engine._queue if e[3] is anchor_cb]
            assert bool(anchors) == batching  # batched chains are still pending
            batched_at_hook = machine.engine.stats.batched_events
            seen: list[float] = []
            machine.engine.audit_hook = lambda event: seen.append(event.time)
            machine.engine.run()
            assert machine.engine.stats.batched_events == batched_at_hook
            assert seen == history[len(history) - len(seen):]
            assert all(p.finished for p in machine.processes)
            runs.append((history, _state(machine), batched_at_hook))
        (hist_off, state_off, batched_off), (hist_on, state_on, batched_on) = runs
        assert hist_on == hist_off
        assert state_on == state_off
        assert batched_off == 0 < batched_on

    def test_tie_shuffle_forces_per_event_anchors(self):
        machine = _lock_machine(True)
        machine.engine.shuffle_same_time_ties(np.random.default_rng(0))
        _run_lock(machine)
        assert machine.engine.stats.batched_events == 0

    def test_stall_fault_plan_forces_per_event(self):
        machine = _lock_machine(True)
        plan = FaultPlan(stall_rate=1e-5)
        FaultInjector(plan).attach(machine)
        _run_lock(machine)
        assert machine.engine.stats.batched_events == 0

    def test_corruption_fault_plan_forces_per_event(self):
        machine = _lock_machine(True)
        plan = FaultPlan(corruption_rate=0.05)
        FaultInjector(plan).attach(machine)
        _run_lock(machine)
        assert machine.engine.stats.batched_events == 0

    def test_zero_fault_plan_stays_batched_and_identical(self):
        """An attached all-zero plan installs no seams, so batching
        stays live and the run matches the per-event one."""
        off = _lock_machine(False)
        FaultInjector(FaultPlan()).attach(off)
        hist_off = _run_lock(off)

        on = _lock_machine(True)
        FaultInjector(FaultPlan()).attach(on)
        hist_on = _run_lock(on)
        assert hist_on == hist_off
        assert _state(on) == _state(off)
        assert on.engine.stats.batched_events > 0


class TestEngineStats:
    def test_events_per_sec_zero_before_any_run(self):
        stats = Engine().stats
        assert stats.events_per_sec == 0.0
        assert stats.batched_events == 0

    def test_events_per_sec_zero_wall_time_guard(self):
        """A run too fast for the wall meter reports 0, not inf."""
        eng = Engine()
        eng._n_fired = 10
        eng._wall_s = 1e-9
        assert eng.stats.events_per_sec == 0.0

    def test_events_per_sec_normal_metering(self):
        eng = Engine()
        for i in range(100):
            eng.schedule(float(i), lambda: None)
        eng.run()
        stats = eng.stats
        assert stats.events_fired == 100
        assert stats.events_per_sec > 0
