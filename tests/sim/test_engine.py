"""Tests for the discrete-event engine."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine, Event


class TestScheduling:
    def test_fires_in_time_order(self):
        eng = Engine()
        fired = []
        eng.schedule(10, fired.append, "late")
        eng.schedule(5, fired.append, "early")
        eng.run()
        assert fired == ["early", "late"]
        assert eng.now == 10.0

    def test_ties_fire_in_schedule_order(self):
        eng = Engine()
        fired = []
        for tag in "abc":
            eng.schedule(3, fired.append, tag)
        eng.run()
        assert fired == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.schedule(-1, lambda: None)

    def test_schedule_at_absolute_time(self):
        eng = Engine()
        seen = []
        eng.schedule_at(7.5, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [7.5]

    def test_schedule_at_past_time_rejected_with_clear_message(self):
        eng = Engine()
        eng.schedule(10, lambda: None)
        eng.run()
        assert eng.now == 10.0
        with pytest.raises(SimulationError, match=r"t=4(\.0)? .*now=10\.0"):
            eng.schedule_at(4, lambda: None)

    def test_schedule_at_now_is_allowed(self):
        eng = Engine()
        eng.schedule(10, lambda: None)
        eng.run()
        fired = []
        eng.schedule_at(10.0, fired.append, "again")
        eng.run()
        assert fired == ["again"]

    def test_schedule_at_consumes_exactly_one_seq(self):
        eng = Engine()
        eng.schedule(1, lambda: None)
        before = eng.events_scheduled
        event = eng.schedule_at(5.0, lambda: None)
        assert eng.events_scheduled == before + 1
        assert event.seq == before
        assert eng.schedule(0, lambda: None).seq == before + 1

    def test_schedule_at_before_now_raises_and_consumes_nothing(self):
        eng = Engine()
        eng.schedule(10, lambda: None)
        eng.run()
        before = eng.events_scheduled
        with pytest.raises(SimulationError):
            eng.schedule_at(9.999, lambda: None)
        assert eng.events_scheduled == before
        assert eng.pending == 0

    def test_schedule_at_fires_at_now_plus_delay_not_at_time(self):
        # `now + (time - now)` rounds differently from `time` for these
        # two values; the engine keeps the former (see the docstring).
        now, time = 8.194141106127972, 9622.389240556373
        expected = now + (time - now)
        assert expected != time
        eng = Engine()
        eng.schedule(now, lambda: None)
        eng.run()
        assert eng.now == now
        seen = []
        event = eng.schedule_at(time, lambda: seen.append(eng.now))
        assert event.time == expected
        eng.run()
        assert seen == [expected]

    def test_events_scheduled_from_callbacks(self):
        eng = Engine()
        fired = []

        def first():
            fired.append("first")
            eng.schedule(5, lambda: fired.append("second"))

        eng.schedule(1, first)
        eng.run()
        assert fired == ["first", "second"]
        assert eng.now == 6.0


class TestCancellation:
    def test_cancelled_event_skipped(self):
        eng = Engine()
        fired = []
        ev = eng.schedule(5, fired.append, "x")
        ev.cancel()
        eng.run()
        assert fired == []

    def test_cancel_one_of_many(self):
        eng = Engine()
        fired = []
        keep = eng.schedule(5, fired.append, "keep")
        drop = eng.schedule(5, fired.append, "drop")
        drop.cancel()
        eng.run()
        assert fired == ["keep"]
        assert not keep.cancelled


class TestRunControl:
    def test_run_until_stops_clock(self):
        eng = Engine()
        fired = []
        eng.schedule(5, fired.append, "a")
        eng.schedule(50, fired.append, "b")
        eng.run(until=10)
        assert fired == ["a"]
        assert eng.now == 10.0
        eng.run()
        assert fired == ["a", "b"]

    def test_run_until_advances_clock_even_when_idle(self):
        eng = Engine()
        eng.run(until=100)
        assert eng.now == 100.0

    def test_max_events(self):
        eng = Engine()
        fired = []
        for i in range(10):
            eng.schedule(i, fired.append, i)
        eng.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_step_returns_false_when_idle(self):
        assert Engine().step() is False

    def test_events_fired_counter(self):
        eng = Engine()
        for i in range(4):
            eng.schedule(i, lambda: None)
        eng.run()
        assert eng.events_fired == 4


class TestFastPath:
    """The inlined run() loop and the list-keyed heap."""

    def test_same_instant_fifo_survives_interleaved_delays(self):
        eng = Engine()
        fired = []
        eng.schedule(5, fired.append, "a")
        eng.schedule(3, fired.append, "x")
        eng.schedule(5, fired.append, "b")
        eng.schedule(5, fired.append, "c")
        eng.run()
        assert fired == ["x", "a", "b", "c"]

    def test_cancelled_head_skipped_on_fast_path(self):
        eng = Engine()
        fired = []
        first = eng.schedule(1, fired.append, "dropped")
        eng.schedule(2, fired.append, "kept")
        first.cancel()
        eng.run()  # no until/max_events/audit: the fast loop
        assert fired == ["kept"]
        assert eng.events_fired == 1

    def test_cancelled_head_skipped_on_guarded_path(self):
        eng = Engine()
        fired = []
        first = eng.schedule(1, fired.append, "dropped")
        eng.schedule(2, fired.append, "kept")
        first.cancel()
        eng.run(until=50)  # until forces the guarded loop
        assert fired == ["kept"]
        assert eng.pending == 0

    def test_max_events_does_not_advance_to_until(self):
        eng = Engine()
        fired = []
        eng.schedule(5, fired.append, "a")
        eng.schedule(8, fired.append, "b")
        eng.run(until=100, max_events=1)
        assert fired == ["a"]
        assert eng.now == 5.0  # stopped by the budget, not the horizon
        eng.run(until=100)
        assert fired == ["a", "b"]
        assert eng.now == 100.0

    def test_audit_hook_fires_on_every_event_with_budget(self):
        eng = Engine()
        seen = []
        eng.audit_hook = lambda ev: seen.append(ev.time)
        for d in (3, 1, 2):
            eng.schedule(d, lambda: None)
        eng.run(max_events=2)
        assert seen == [1.0, 2.0]

    def test_events_fired_current_during_callbacks(self):
        """Callbacks must observe an up-to-date counter mid-run."""
        eng = Engine()
        observed = []
        for _ in range(3):
            eng.schedule(1, lambda: observed.append(eng.events_fired))
        eng.run()
        assert observed == [1, 2, 3]

    def test_stats_counts_events_and_wall_time(self):
        eng = Engine()
        for i in range(100):
            eng.schedule(i, lambda: None)
        eng.run()
        stats = eng.stats
        assert stats.events_fired == 100
        assert stats.pending == 0
        assert stats.sim_time == 99.0
        assert stats.wall_seconds > 0.0
        assert stats.events_per_sec == pytest.approx(100 / stats.wall_seconds)

    def test_stats_zero_before_any_run(self):
        stats = Engine().stats
        assert stats.events_fired == 0
        assert stats.events_per_sec == 0.0

    def test_step_and_run_share_semantics(self):
        """step() is the guarded path with a budget of one event."""
        eng = Engine()
        fired = []
        drop = eng.schedule(1, fired.append, "drop")
        eng.schedule(2, fired.append, "keep")
        drop.cancel()
        assert eng.step() is True
        assert fired == ["keep"]
        assert eng.step() is False


class TestNanTimes:
    """A NaN time compares false with everything, so it must be refused
    up front: queued, it would fire out of order and poison the clock."""

    def test_schedule_rejects_nan_delay(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.schedule(math.nan, lambda: None)
        assert eng.events_scheduled == 0
        assert eng.pending == 0

    def test_schedule_at_rejects_nan_time(self):
        eng = Engine()
        eng.schedule(1, lambda: None)
        with pytest.raises(SimulationError):
            eng.schedule_at(math.nan, lambda: None)
        eng.run()
        assert eng.now == 1.0
        assert eng.events_scheduled == 1

    def test_infinite_delay_still_allowed(self):
        eng = Engine()
        assert eng.schedule(math.inf, lambda: None).time == math.inf


class TestBudgetedFastLoop:
    """run(max_events=n) without hook, probe or horizon: the fast loop."""

    @staticmethod
    def _guarded_calls(eng):
        calls = []
        inner = eng._run_guarded

        def recording(until, max_events):
            calls.append((until, max_events))
            inner(until, max_events)

        eng._run_guarded = recording
        return calls

    def test_fires_exactly_n_and_leaves_the_next_queued(self):
        eng = Engine()
        calls = self._guarded_calls(eng)
        fired = []
        for i in range(5):
            eng.schedule(i, fired.append, i)
        eng.run(max_events=3)
        assert fired == [0, 1, 2]
        assert eng.events_fired == 3
        assert eng.pending == 2
        assert eng.now == 2.0
        assert calls == []  # the fast loop served it
        eng.run(max_events=3)
        assert fired == [0, 1, 2, 3, 4]

    def test_cancelled_entries_are_skipped_and_not_counted(self):
        eng = Engine()
        fired = []
        events = [eng.schedule(i, fired.append, i) for i in range(5)]
        events[1].cancel()
        events[2].cancel()
        eng.run(max_events=2)
        assert fired == [0, 3]
        assert eng.events_fired == 2
        assert eng.pending == 1

    @pytest.mark.parametrize("budget", [0, 1, 2, 3, 6])
    def test_matches_the_guarded_loop(self, budget):
        def history(guarded):
            eng = Engine()
            if guarded:
                eng.audit_hook = lambda event: None
            fired = []
            events = [eng.schedule(d, fired.append, d) for d in (4, 1, 1, 3, 2)]
            events[1].cancel()
            eng.run(max_events=budget)
            return fired, eng.events_fired, eng.pending, eng.now

        assert history(False) == history(True)

    def test_callbacks_see_the_fire_limit_and_it_is_restored(self):
        eng = Engine()
        seen = []
        for i in range(3):
            eng.schedule(i, lambda: seen.append((eng._fire_limit, eng._active_until)))
        eng.run(max_events=2)
        assert seen == [(2, None), (2, None)]
        assert eng._fire_limit is None
        eng.run(max_events=5)
        assert seen[-1] == (7, None)  # absolute: 2 fired before + budget 5
        assert eng._fire_limit is None

    def test_fire_limit_restored_when_a_callback_raises(self):
        eng = Engine()

        def boom():
            raise RuntimeError("boom")

        eng.schedule(1, boom)
        with pytest.raises(RuntimeError):
            eng.run(max_events=4)
        assert eng._fire_limit is None
        assert eng._active_until is None

    def test_until_audit_hook_and_probe_take_the_guarded_loop(self):
        eng = Engine()
        calls = self._guarded_calls(eng)
        eng.schedule(1, lambda: None)
        eng.run(until=5, max_events=9)
        eng.audit_hook = lambda event: None
        eng.schedule(1, lambda: None)
        eng.run(max_events=9)
        eng.audit_hook = None
        eng.probe = lambda time: None
        eng.schedule(1, lambda: None)
        eng.run()
        assert calls == [(5, 9), (None, 9), (None, None)]


class TestEventIsTheHeapEntry:
    def test_properties_and_cancel(self):
        eng = Engine()
        eng.schedule(1, lambda: None)

        def callback(a, b):
            pass

        event = eng.schedule(3, callback, "a", "b")
        assert isinstance(event, Event)
        assert any(entry is event for entry in eng._queue)
        assert event.time == 3.0
        assert event.seq == 1
        assert event.tie == 1.0
        assert event.callback is callback
        assert event.args == ("a", "b")
        assert not event.cancelled
        event.cancel()
        assert event.cancelled
        assert event.callback is None
        assert event.time == 3.0 and event.seq == 1  # the key is unchanged
        eng.run()
        assert eng.events_fired == 1

    def test_cancel_after_firing_is_a_no_op(self):
        eng = Engine()
        fired = []
        event = eng.schedule(1, fired.append, "x")
        eng.run()
        event.cancel()
        assert fired == ["x"]
        assert eng.events_fired == 1

    def test_heap_order_under_shuffled_ties(self):
        class Draws:
            def __init__(self, values):
                self.values = iter(values)

            def random(self):
                return next(self.values)

        eng = Engine()
        eng.shuffle_same_time_ties(Draws([0.7, 0.2, 0.9, 0.1, 0.5]))
        fired = []
        for tag, delay in zip("abcde", (5, 5, 5, 5, 1)):
            event = eng.schedule(delay, fired.append, tag)
            assert event.tie == {"a": 0.7, "b": 0.2, "c": 0.9, "d": 0.1, "e": 0.5}[tag]
        eng.run()
        # time first, then the drawn tie key, whatever the schedule order
        assert fired == ["e", "d", "b", "a", "c"]


class TestDeterminism:
    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=40))
    def test_monotone_clock(self, delays):
        eng = Engine()
        times = []
        for d in delays:
            eng.schedule(d, lambda: times.append(eng.now))
        eng.run()
        assert times == sorted(times)
