"""Default (batched) vs per-event equivalence on the paper's figure workloads.

Retry batching must be invisible in every result the experiments
produce: figure points, observability captures (compared as pickled
bytes — the strongest equality the obs layer offers) and degraded-mode
campaigns.  A Hypothesis sweep over random small workloads backs the
hand-picked points.

The per-event reference comes from making the retry batcher's one
predicate, :meth:`BatchAdvancer.batchable`, refuse: on the machine's
advancer where a test builds the machine, and for every advancer
through the :func:`per_event` fixture where an experiment builds it.
"""

import contextlib
import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.barriers import measure_barrier
from repro.experiments.latency import measure_latencies
from repro.experiments.locks import measure_lock
from repro.faults import FaultInjector, FaultPlan
from repro.machine.api import SharedMemory
from repro.machine.config import MachineConfig, TimerConfig
from repro.machine.ksr import KsrMachine
from repro.obs import ObsSpec
from repro.ring.batch import BatchAdvancer
from repro.sync.locks import (
    HardwareExclusiveLock,
    LockWorkloadParams,
    TicketReadWriteLock,
    run_lock_workload,
)


@pytest.fixture
def per_event(monkeypatch):
    """A context manager inside which no retry chain may batch, so
    machines an experiment builds internally run per-event."""

    @contextlib.contextmanager
    def forced():
        with monkeypatch.context() as patch:
            patch.setattr(BatchAdvancer, "batchable", lambda self: False)
            yield

    return forced


class TestReference:
    def test_per_event_fixture_disables_batching(self, per_event):
        with per_event():
            machine = KsrMachine(MachineConfig.ksr1(n_cells=4, seed=5))
            lock = HardwareExclusiveLock(SharedMemory(machine))
            params = LockWorkloadParams(ops_per_processor=3, read_fraction=0.0, seed=5)
            run_lock_workload(machine, lock, params, n_threads=4)
        assert machine.engine.stats.events_fired > 0
        assert machine.engine.stats.batched_events == 0


class TestFigurePoints:
    """One representative point per figure, captures compared as bytes."""

    def test_fig2_latency_point(self, per_event):
        with per_event():
            off = measure_latencies(4, "network", "read", samples=40, obs=ObsSpec())
        on = measure_latencies(4, "network", "read", samples=40, obs=ObsSpec())
        assert dataclasses.replace(on, capture=None) == dataclasses.replace(off, capture=None)
        assert pickle.dumps(on.capture) == pickle.dumps(off.capture)

    def test_fig3_lock_point(self, per_event):
        with per_event():
            off = measure_lock("hardware", 8, 0.0, ops=6, obs=ObsSpec())
        on = measure_lock("hardware", 8, 0.0, ops=6, obs=ObsSpec())
        assert on.seconds == off.seconds
        assert pickle.dumps(on.capture) == pickle.dumps(off.capture)

    def test_fig3_rw_lock_point(self, per_event):
        with per_event():
            off = measure_lock("rw", 6, 0.4, ops=6, obs=ObsSpec())
        on = measure_lock("rw", 6, 0.4, ops=6, obs=ObsSpec())
        assert on.seconds == off.seconds
        assert pickle.dumps(on.capture) == pickle.dumps(off.capture)

    def test_fig4_barrier_point(self, per_event):
        def point():
            config = MachineConfig.ksr1(
                n_cells=8, seed=404, timer=TimerConfig(enabled=False)
            )
            return measure_barrier(
                "counter", 8, machine_config=config, reps=4, obs=ObsSpec()
            )

        with per_event():
            off = point()
        on = point()
        assert on.seconds == off.seconds
        assert pickle.dumps(on.capture) == pickle.dumps(off.capture)

    def test_fig5_two_ring_barrier_point(self, per_event):
        def point():
            config = MachineConfig.ksr2(
                n_cells=36, seed=404, timer=TimerConfig(enabled=False)
            )
            return measure_barrier(
                "tree", 34, machine_config=config, reps=3, obs=ObsSpec()
            )

        with per_event():
            off = point()
        on = point()
        assert on.seconds == off.seconds
        assert pickle.dumps(on.capture) == pickle.dumps(off.capture)


class TestDegradedCampaign:
    """F1 degraded points: fault seams force the per-event path, and the
    result is identical either way."""

    def test_f1_zero_plan_point(self, per_event):
        with per_event():
            off = measure_lock("rw", 6, 0.2, ops=5, plan=FaultPlan(), obs=ObsSpec())
        on = measure_lock("rw", 6, 0.2, ops=5, plan=FaultPlan(), obs=ObsSpec())
        assert on.seconds == off.seconds
        assert on.faults == off.faults
        assert pickle.dumps(on.capture) == pickle.dumps(off.capture)

    def test_f1_faulted_point(self, per_event):
        plan = FaultPlan(corruption_rate=0.02, stall_rate=2e-6, seed_salt=3)
        with per_event():
            off = measure_lock("rw", 6, 0.2, ops=5, plan=plan, obs=ObsSpec())
        on = measure_lock("rw", 6, 0.2, ops=5, plan=plan, obs=ObsSpec())
        assert on.seconds == off.seconds
        assert on.faults == off.faults
        assert pickle.dumps(on.capture) == pickle.dumps(off.capture)

    def test_f1_dead_cell_point(self, per_event):
        plan = FaultPlan(dead_cells=(7,))
        with per_event():
            off = measure_lock("hardware", 4, 0.0, ops=5, plan=plan)
        on = measure_lock("hardware", 4, 0.0, ops=5, plan=plan)
        assert on.seconds == off.seconds
        assert on.faults == off.faults


def _run_history(
    n_procs: int,
    ops: int,
    seed: int,
    read_fraction: float,
    plan: FaultPlan | None,
    batching: bool,
) -> tuple:
    machine = KsrMachine(MachineConfig.ksr1(n_cells=n_procs, seed=seed))
    if not batching:
        machine.protocol.batch_advancer.batchable = lambda: False
    if plan is not None:
        FaultInjector(plan).attach(machine)
    history: list[float] = []
    machine.engine.probe = history.append
    mem = SharedMemory(machine)
    lock = TicketReadWriteLock(mem) if read_fraction else HardwareExclusiveLock(mem)
    params = LockWorkloadParams(
        ops_per_processor=ops, read_fraction=read_fraction, seed=seed
    )
    result = run_lock_workload(machine, lock, params, n_threads=n_procs)
    return (
        tuple(history),
        result.total_seconds,
        machine.engine.now,
        tuple(sorted(machine.total_perf().snapshot().items())),
        machine.engine.stats.events_fired,
    )


class TestPropertyEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        n_procs=st.integers(min_value=2, max_value=8),
        ops=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
        read_fraction=st.sampled_from([0.0, 0.5]),
    )
    def test_random_workloads_identical(self, n_procs, ops, seed, read_fraction):
        off = _run_history(n_procs, ops, seed, read_fraction, None, False)
        on = _run_history(n_procs, ops, seed, read_fraction, None, True)
        assert on == off

    @settings(max_examples=6, deadline=None)
    @given(
        n_procs=st.integers(min_value=2, max_value=6),
        ops=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
        corruption=st.sampled_from([0.0, 0.05]),
        stall=st.sampled_from([0.0, 5e-6]),
    )
    def test_random_faulted_workloads_identical(
        self, n_procs, ops, seed, corruption, stall
    ):
        plan = FaultPlan(corruption_rate=corruption, stall_rate=stall, seed_salt=seed % 7)
        off = _run_history(n_procs, ops, seed, 0.0, plan, False)
        on = _run_history(n_procs, ops, seed, 0.0, plan, True)
        assert on == off
