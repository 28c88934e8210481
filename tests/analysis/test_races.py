"""DES determinism auditing: engine hooks, conflict flags, and the
tie-break perturbation harness."""

from __future__ import annotations

import numpy as np

from repro.analysis.races import (
    RaceAuditor,
    default_audit_workload,
    diff_fingerprints,
    machine_fingerprint,
    perturbed_contended_workload,
    perturbed_default_workload,
    run_perturbed,
)
from repro.coherence.directory import Directory
from repro.sim.engine import Engine


class TestEngineHooks:
    def test_audit_hook_sees_every_event(self):
        engine = Engine()
        seen = []
        engine.audit_hook = seen.append
        engine.schedule(5, lambda: None)
        engine.schedule(1, lambda: None)
        engine.run()
        assert [e.time for e in seen] == [1.0, 5.0]

    def test_tie_shuffle_reorders_same_instant_events(self):
        # find a seed whose shuffle inverts FIFO order for two ties
        def order(rng):
            engine = Engine()
            if rng is not None:
                engine.shuffle_same_time_ties(rng)
            fired = []
            engine.schedule(10, fired.append, "first")
            engine.schedule(10, fired.append, "second")
            engine.run()
            return fired

        assert order(None) == ["first", "second"]
        inverted = any(
            order(np.random.default_rng(seed)) == ["second", "first"]
            for seed in range(20)
        )
        assert inverted, "no seed inverted a same-instant pair"

    def test_shuffle_never_reorders_distinct_times(self):
        engine = Engine()
        engine.shuffle_same_time_ties(np.random.default_rng(0))
        fired = []
        engine.schedule(20, fired.append, "late")
        engine.schedule(10, fired.append, "early")
        engine.run()
        assert fired == ["early", "late"]

    def test_shuffle_and_audit_compose_on_large_tie_groups(self):
        # regression for the keyed heap: the perturbation harness relies
        # on shuffled tie keys and the audit hook seeing every event;
        # both must keep working with heap entries that are the Events
        # themselves, lists keyed by (time, tie, seq).
        engine = Engine()
        engine.shuffle_same_time_ties(np.random.default_rng(7))
        audited = []
        engine.audit_hook = lambda ev: audited.append(ev.time)
        fired = []
        for instant in (5.0, 1.0):
            for tag in range(8):
                engine.schedule(instant, fired.append, (instant, tag))
        engine.run()
        assert len(fired) == 16
        assert audited == [1.0] * 8 + [5.0] * 8
        assert [t for t, _ in fired] == audited
        # the shuffle must only permute within an instant, never across
        assert sorted(tag for t, tag in fired if t == 1.0) == list(range(8))


class TestConflictFlags:
    def _run_pair(self, make_callbacks):
        """Two same-instant events against one audited directory."""
        engine = Engine()

        class Holder:
            def __init__(self):
                self.directory = Directory()
                self.values = {}

            def poke(self, addr, value):
                self.values[addr] = value

        holder = Holder()
        auditor = RaceAuditor().install_on(engine, holder)
        a, b = make_callbacks(holder)
        engine.schedule(10, a)
        engine.schedule(10, b)
        engine.run()
        return auditor.report()

    def test_write_write_same_subpage_is_flagged(self):
        flags = self._run_pair(
            lambda h: (
                lambda: h.directory.record_fill_shared(7, 0),
                lambda: h.directory.record_fill_shared(7, 1),
            )
        )
        assert len(flags) == 1
        assert flags[0].subpage_id == 7
        assert flags[0].time == 10.0

    def test_read_read_same_subpage_commutes(self):
        flags = self._run_pair(
            lambda h: (
                lambda: h.directory.entry(7),
                lambda: h.directory.state_in(7, 0),
            )
        )
        assert flags == []

    def test_disjoint_subpages_do_not_conflict(self):
        flags = self._run_pair(
            lambda h: (
                lambda: h.directory.record_fill_shared(7, 0),
                lambda: h.directory.record_fill_shared(8, 1),
            )
        )
        assert flags == []

    def test_read_write_same_subpage_is_flagged(self):
        flags = self._run_pair(
            lambda h: (
                lambda: h.directory.state_in(9, 0),
                lambda: h.directory.record_fill_shared(9, 1),
            )
        )
        assert len(flags) == 1

    def test_word_store_pokes_count_as_writes(self):
        flags = self._run_pair(
            lambda h: (
                lambda: h.poke(0x100, 1),
                lambda: h.poke(0x108, 2),  # same 128 B subpage
            )
        )
        assert len(flags) == 1

    def test_touches_outside_events_are_ignored(self):
        engine = Engine()

        class Holder:
            def __init__(self):
                self.directory = Directory()

            def poke(self, addr, value):
                pass

        holder = Holder()
        auditor = RaceAuditor().install_on(engine, holder)
        holder.directory.record_fill_shared(3, 0)  # setup, not an event
        assert auditor.report() == []


class TestMachineAudit:
    def test_race_free_workload_is_flag_free(self):
        machine, auditor = default_audit_workload(audit=True)
        assert auditor is not None
        assert auditor.report() == []
        assert auditor.n_events_audited > 0

    def test_contended_workload_raises_flags(self):
        _, auditor = default_audit_workload(audit=True, contended=True)
        assert auditor is not None
        assert auditor.report() != []

    def test_audited_machine_still_computes_correctly(self):
        machine, _ = default_audit_workload(audit=True, contended=True)
        fp = machine_fingerprint(machine)
        counter_values = [v for v in fp["values"].values() if v == 12]
        assert counter_values, "locked counter must reach 3 increments x 4 cells"


class TestPerturbation:
    def test_race_free_workload_is_fully_deterministic(self):
        report = run_perturbed(perturbed_default_workload, n_runs=3)
        assert report.state_deterministic, report.summary()
        assert report.timing_deterministic, report.summary()
        assert report.data_deterministic

    def test_contended_workload_keeps_data_deterministic(self):
        report = run_perturbed(perturbed_contended_workload, n_runs=3)
        assert report.data_deterministic, report.summary()

    def test_contended_workload_state_depends_on_tie_order(self):
        # which cell ends up caching the hot subpage is grant-order
        # sensitive: the harness must expose that, not mask it
        report = run_perturbed(perturbed_contended_workload, n_runs=4)
        assert not report.state_deterministic

    def test_fingerprint_diff_is_empty_on_identical_runs(self):
        a = machine_fingerprint(perturbed_default_workload(None))
        b = machine_fingerprint(perturbed_default_workload(None))
        assert diff_fingerprints(a, b) == []
