"""Tests for Observer attach/detach wiring and capture snapshots."""

import pickle

import pytest

from repro.errors import SimulationError
from repro.experiments.locks import measure_lock
from repro.machine.config import MachineConfig
from repro.machine.ksr import KsrMachine
from repro.memory.perfmon import PerfMonitor
from repro.obs import Observer, ObsCapture, ObsSpec


def _machine(n_cells: int = 2, seed: int = 7) -> KsrMachine:
    return KsrMachine(MachineConfig.ksr1(n_cells=n_cells, seed=seed))


class TestAttachDetach:
    def test_attach_wires_every_probe(self):
        machine = _machine()
        obs = Observer().attach(machine)
        assert obs.attached
        assert machine.engine.probe is not None
        assert machine.protocol.probe is obs.series
        assert all(r.probe is not None for r in machine.hierarchy.all_rings)
        assert machine.trace is obs.trace

    def test_detach_restores_everything(self):
        machine = _machine()
        prev_trace = machine.trace
        obs = Observer().attach(machine)
        obs.detach()
        assert not obs.attached
        assert machine.engine.probe is None
        assert machine.protocol.probe is None
        assert all(r.probe is None for r in machine.hierarchy.all_rings)
        assert machine.trace is prev_trace
        for cell in machine.cells:
            assert cell.trace is prev_trace

    def test_double_attach_rejected(self):
        machine = _machine()
        obs = Observer().attach(machine)
        with pytest.raises(SimulationError):
            obs.attach(_machine())
        with pytest.raises(SimulationError):
            Observer().attach(machine)
        obs.detach()
        Observer().attach(machine).detach()  # free again after detach

    def test_capture_requires_attachment(self):
        with pytest.raises(SimulationError):
            Observer().capture("nothing")

    def test_detach_is_idempotent(self):
        obs = Observer()
        obs.detach()  # never attached: a no-op
        obs.attach(_machine())
        obs.detach()
        obs.detach()


class TestObservedRuns:
    def test_probes_do_not_perturb_the_simulation(self):
        plain = measure_lock("rw", 2, 0.5, ops=6, seed=11)
        traced = measure_lock("rw", 2, 0.5, ops=6, seed=11, obs=ObsSpec())
        assert traced.seconds == plain.seconds
        assert plain.capture is None
        assert isinstance(traced.capture, ObsCapture)

    def test_capture_contents(self):
        cap = measure_lock("rw", 2, 0.5, ops=6, seed=11, obs=ObsSpec()).capture
        assert cap.label == "fig3 rw 50% read P=2"
        assert cap.n_cells == 2
        assert cap.end_cycles > 0
        assert cap.end_seconds == pytest.approx(cap.end_cycles / cap.clock_hz)
        assert cap.us(cap.clock_hz) == pytest.approx(1e6)
        assert len(cap.perfmon) == cap.n_cells
        assert cap.meta["ops"] == "6"
        assert cap.meta["seed"] == "11"
        # machine totals really are the sum of the per-cell monitors
        agg = PerfMonitor.aggregate(PerfMonitor(**snap) for snap in cap.perfmon)
        assert agg.snapshot() == cap.totals
        # the series saw the ops the trace recorded
        assert cap.view.total("ops") == len(cap.records)
        assert cap.view.total("ring_tx") == cap.totals["ring_transactions"]
        assert cap.directory["subpages"] >= 1

    def test_capture_is_picklable_and_stable(self):
        cap = measure_lock("rw", 2, 0.5, ops=6, seed=11, obs=ObsSpec()).capture
        clone = pickle.loads(pickle.dumps(cap))
        assert clone == cap

    def test_record_cap_counts_drops_but_series_stay_exact(self):
        full = measure_lock(
            "rw", 2, 0.5, ops=6, seed=11, obs=ObsSpec(max_records=None)
        ).capture
        capped = measure_lock(
            "rw", 2, 0.5, ops=6, seed=11, obs=ObsSpec(max_records=10)
        ).capture
        assert full.dropped_records == 0
        assert len(capped.records) == 10
        assert capped.dropped_records == len(full.records) - 10
        # the retained records are the newest ones
        assert capped.records == full.records[-10:]
        # bucketed series include the evicted records
        assert capped.view == full.view

    def test_spec_repr_is_deterministic(self):
        # the sweep cache keys points by repr of their kwargs
        assert repr(ObsSpec()) == repr(ObsSpec())
        assert repr(ObsSpec(bucket_cycles=1.0)) != repr(ObsSpec())
