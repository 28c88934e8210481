"""Tests for read combining (snarfing) and outstanding fills."""

from repro.coherence.litmus import run_step, schedule_machine
from repro.coherence.ops import OutstandingFills
from repro.coherence.snarf import ReadCombiner
from repro.memory.address import subpage_of
from repro.memory.local_cache import SubpageState


class TestReadCombiner:
    def test_join_within_window(self):
        c = ReadCombiner()
        c.begin(5, injected_at=10.0, completed_at=150.0)
        t = c.try_join(5, now=100.0)
        assert t is not None and t >= 150.0
        assert c.n_joined == 1

    def test_no_join_after_completion(self):
        c = ReadCombiner()
        c.begin(5, 10.0, 150.0)
        assert c.try_join(5, now=151.0) is None

    def test_no_join_other_subpage(self):
        c = ReadCombiner()
        c.begin(5, 10.0, 150.0)
        assert c.try_join(6, now=100.0) is None

    def test_expire_cleans_up(self):
        c = ReadCombiner()
        c.begin(5, 10.0, 150.0)
        c.expire(5, now=200.0)
        assert c.try_join(5, 100.0) is None

    def test_expire_keeps_live_flight(self):
        c = ReadCombiner()
        c.begin(5, 10.0, 150.0)
        c.expire(5, now=100.0)
        assert c.try_join(5, 100.0) is not None


class TestOutstandingFills:
    def test_pending_then_landed(self):
        f = OutstandingFills()
        f.issue(0, 7, completes_at=500.0)
        assert f.pending_completion(0, 7, now=100.0) == 500.0
        f.complete(0, 7)
        assert f.pending_completion(0, 7, now=100.0) is None

    def test_past_fill_auto_clears(self):
        f = OutstandingFills()
        f.issue(0, 7, 500.0)
        assert f.pending_completion(0, 7, now=600.0) is None
        assert f.pending_completion(0, 7, now=100.0) is None  # cleared

    def test_earlier_fill_wins(self):
        f = OutstandingFills()
        f.issue(0, 7, 500.0)
        f.issue(0, 7, 300.0)
        assert f.pending_completion(0, 7, now=0.0) == 300.0

    def test_outstanding_for_cell(self):
        f = OutstandingFills()
        f.issue(0, 7, 500.0)
        f.issue(0, 8, 600.0)
        f.issue(1, 9, 700.0)
        assert sorted(f.outstanding_for(0)) == [(7, 500.0), (8, 600.0)]


class TestSnarfGuard:
    def test_no_snarf_while_an_owner_holds_the_subpage(self):
        """A response still circulating after a newer write took the
        subpage exclusive carries stale data: it must revive nobody."""
        machine, addrs = schedule_machine(2, 1)
        for index, step in enumerate((("read", 0, 0), ("read", 1, 0), ("write", 0, 0, 1))):
            run_step(machine, addrs, index, step)
        sp = subpage_of(addrs[0])
        machine.protocol._snarf_placeholders(sp, machine.engine.now)
        assert machine.cells[1].local_cache.state_of(sp) is SubpageState.INVALID
        assert machine.protocol.directory.state_in(sp, 1) is SubpageState.INVALID
        assert machine.cells[1].perfmon.snarfs == 0
