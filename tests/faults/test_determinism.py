"""Determinism pins for the fault subsystem.

Two properties the whole design rests on:

* a **zero-fault plan is free**: attaching an injector whose plan
  enables nothing leaves the simulated run bit-identical to a run with
  no injector at all (same event counts, same clock, byte-identical
  observability capture);
* **campaigns are job-count invariant**: fanning the processor x rate
  grid across worker processes changes nothing in the serialized
  output, byte for byte.
"""

from __future__ import annotations

import pickle

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.faults.campaign import run_campaign
from repro.machine.api import SharedMemory
from repro.machine.config import MachineConfig
from repro.machine.ksr import KsrMachine
from repro.obs import Observer, ObsSpec
from repro.sync.locks import LockWorkloadParams, TicketReadWriteLock, run_lock_workload


def _lock_run(plan: FaultPlan | None, *, n_procs: int = 16, ops: int = 20):
    """One fig3-style lock-workload run, observed; returns its capture.

    The label and meta are fixed so captures from different wirings are
    comparable byte for byte.
    """
    config = MachineConfig.ksr1(n_cells=max(2, n_procs), seed=303)
    machine = KsrMachine(config)
    if plan is not None:
        FaultInjector(plan).attach(machine)
    observer = Observer(ObsSpec()).attach(machine)
    mem = SharedMemory(machine)
    lock = TicketReadWriteLock(mem)
    params = LockWorkloadParams(ops_per_processor=ops, read_fraction=0.0, seed=303)
    run_lock_workload(machine, lock, params, n_threads=n_procs)
    capture = observer.capture(f"determinism P={n_procs}", n_procs=n_procs, ops=ops)
    observer.detach()
    return machine, capture


class TestZeroFaultIdentity:
    def test_zero_plan_run_is_bit_identical_to_uninjected_run(self):
        bare_machine, bare = _lock_run(None)
        zero_machine, zero = _lock_run(FaultPlan())
        assert zero_machine.engine.now == pytest.approx(bare_machine.engine.now, abs=0)
        assert zero_machine.engine.events_fired == bare_machine.engine.events_fired
        assert zero_machine.engine.events_scheduled == bare_machine.engine.events_scheduled
        assert pickle.dumps(zero) == pickle.dumps(bare)

    def test_zero_plan_capture_reports_zero_fault_totals(self):
        _, zero = _lock_run(FaultPlan())
        assert zero.faults
        assert all(v == 0.0 for v in zero.faults.values())

    def test_faulty_run_diverges(self):
        # The pin above would pass vacuously if _lock_run ignored its
        # plan; a corrupting plan must visibly change the run.
        _, bare = _lock_run(None)
        _, faulty = _lock_run(FaultPlan(corruption_rate=0.01))
        assert pickle.dumps(faulty) != pickle.dumps(bare)
        assert faulty.faults["retries"] > 0


class TestCampaignDeterminism:
    GRID = dict(proc_counts=[4, 8], fault_rates=[0.0, 1e-3], ops=10)

    def test_jobs_do_not_change_the_serialized_campaign(self):
        from repro.experiments.sweep import SweepRunner

        serial = run_campaign(runner=SweepRunner(jobs=1), **self.GRID)
        with SweepRunner(jobs=4) as runner:
            fanned = run_campaign(runner=runner, **self.GRID)
        assert serial.to_json() == fanned.to_json()
        assert serial.render() == fanned.render()

    def test_repeat_runs_are_byte_identical(self):
        a = run_campaign(**self.GRID)
        b = run_campaign(**self.GRID)
        assert a.to_json() == b.to_json()

    def test_chrome_traces_are_deterministic(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        run_campaign(
            proc_counts=[4], fault_rates=[0.0, 1e-3], ops=10, trace_dir=str(dir_a)
        )
        run_campaign(
            proc_counts=[4], fault_rates=[0.0, 1e-3], ops=10, trace_dir=str(dir_b)
        )
        names_a = sorted(p.name for p in dir_a.iterdir())
        names_b = sorted(p.name for p in dir_b.iterdir())
        assert names_a == names_b
        assert len(names_a) == 2  # one per rate: the slug must not collide
        for name in names_a:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
