"""The event queue at the heart of the simulator.

Time is a float, measured in CPU cycles of the simulated machine
(fractional cycles arise from ring hop times).  Events scheduled for
the same instant fire in scheduling order, which keeps runs
deterministic without any reliance on heap tie-breaking.

Each :class:`Event` is its own heap entry: a list ``[time, tie, seq,
callback, args]``, so ``heapq`` orders entries by comparing native
floats and ints and scheduling allocates one object.  ``seq`` is unique
per event, so the comparison always resolves before reaching the
``callback`` element.

Two opt-in hooks support the determinism auditing in
:mod:`repro.analysis.races`: :attr:`Engine.audit_hook` observes every
event just before it fires, and :meth:`Engine.shuffle_same_time_ties`
replaces the same-instant FIFO order with a seeded random order so a
harness can detect outcomes that depend on tie-breaking.  A third hook,
:attr:`Engine.probe`, is the observability seam (:mod:`repro.obs`): it
receives each event's fire time *after* the clock advances, so a
machine-wide sampler can bucket event throughput by simulated time.
No hook affects a run unless explicitly installed; :meth:`Engine.run`
samples them when it starts, so install them before running.

Wall-clock throughput (events/sec) is metered through
:mod:`repro.util.wallclock` and exposed via :attr:`Engine.stats`; the
host clock is never visible to simulated code.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import itemgetter
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.util.wallclock import perf_counter

__all__ = ["Engine", "EngineStats", "Event"]

#: Shortest meter interval (host seconds) that yields a meaningful
#: events/sec figure.  A stats snapshot taken after a single event sees
#: a wall interval of a few timer ticks; dividing by it produces a
#: nonsense rate in the billions, so anything below this reports 0.0.
_MIN_METER_SECONDS = 1e-6

# Determinism sinks for `ksr-analyze flow` (KSR110): event scheduling
# must be a pure function of configuration and the master seed.
__ksr_flow_sinks__ = ("Engine.schedule", "Engine.schedule_at")


class Event(list):
    """A scheduled callback; returned by :meth:`Engine.schedule`.

    The event is the heap entry itself, the list ``[time, tie, seq,
    callback, args]``; only the engine builds one.  List order is heap
    order, and no comparison method is overridden, so ``heapq`` compares
    entries natively.  Cancellation is lazy: :meth:`cancel` clears the
    callback slot and the engine skips the entry when it surfaces.

    Being a list, an event is unhashable and ``==`` compares contents:
    code that holds events must track them by identity (``is``) or keep
    them in lists, not in sets or as dict keys.
    """

    __slots__ = ()

    time = property(itemgetter(0), doc="Absolute fire time in cycles.")
    tie = property(
        itemgetter(1),
        doc="Same-instant ordering key; equals ``seq`` (FIFO) unless the "
        "engine is shuffling ties for a determinism audit.",
    )
    seq = property(itemgetter(2), doc="Engine sequence number (unique per event).")
    callback = property(itemgetter(3), doc="The callback, or ``None`` once cancelled.")
    args = property(itemgetter(4), doc="Positional arguments for the callback.")

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called."""
        return self[3] is None

    def cancel(self) -> None:
        """Prevent this event from firing (no-op if already fired)."""
        self[3] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        callback = self[3]
        name = "(cancelled)" if callback is None else getattr(callback, "__qualname__", repr(callback))
        return f"Event(t={self[0]:.1f}, {name})"


@dataclass(frozen=True)
class EngineStats:
    """Throughput counters for one engine (see :attr:`Engine.stats`)."""

    #: Events executed so far.
    events_fired: int
    #: Events ever scheduled (fired, pending or cancelled).  Paired
    #: with ``events_fired`` this pins a run's full event history, which
    #: is how the fault tests prove a zero-fault plan changes nothing.
    events_scheduled: int
    #: Host seconds spent inside :meth:`Engine.run` / :meth:`Engine.step`.
    wall_seconds: float
    #: ``events_fired / wall_seconds`` (0.0 before the first run *and*
    #: whenever the meter interval is too short to be meaningful — a
    #: first-event snapshot must not divide by a ~0 interval).
    events_per_sec: float
    #: Current simulation time in cycles.
    sim_time: float
    #: Queued (possibly cancelled) events.
    pending: int
    #: Subset of ``events_fired`` advanced in closed form by the retry
    #: batcher (:mod:`repro.ring.batch`) instead of heap dispatch.  The
    #: total above includes these, so event budgets and livelock guards
    #: see identical counts either way.
    batched_events: int = 0


class Engine:
    """A minimal deterministic discrete-event engine.

    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(10, fired.append, "a")
    >>> _ = eng.schedule(5, fired.append, "b")
    >>> eng.run()
    >>> fired, eng.now
    (['b', 'a'], 10.0)
    """

    def __init__(self) -> None:
        self._queue: list[Event] = []
        self._now = 0.0
        self._seq = 0
        self._n_fired = 0
        self._n_batched = 0
        self._wall_s = 0.0
        self._tie_rng: Any = None
        #: Absolute ``_n_fired`` ceiling while :meth:`run` runs under an
        #: event budget (``None`` = unlimited).  The retry batcher
        #: reads it so closed-form advances respect the budget exactly as
        #: per-event dispatch would.
        self._fire_limit: Optional[int] = None
        #: The active ``until`` horizon while :meth:`run` runs (``None``
        #: = unbounded); read by the batcher for the same reason.
        self._active_until: Optional[float] = None
        #: Opt-in observer called with each event just before it fires
        #: (see :mod:`repro.analysis.races`).  ``None`` in normal runs.
        self.audit_hook: Optional[Callable[[Event], None]] = None
        #: Opt-in observability probe called with each event's fire time
        #: (see :mod:`repro.obs`).  ``None`` — the default — costs one
        #: branch per :meth:`run` call, nothing per event.
        self.probe: Optional[Callable[[float], None]] = None

    def shuffle_same_time_ties(self, rng: Any) -> None:
        """Order same-instant events randomly (seeded) instead of FIFO.

        ``rng`` is anything with a ``random()`` method (e.g.
        ``numpy.random.Generator``).  Install it *before* scheduling the
        workload; events already queued keep their FIFO keys.  This
        deliberately breaks the documented same-instant ordering so the
        determinism auditor can expose tie-break-dependent outcomes —
        never use it in a measurement run.
        """
        self._tie_rng = rng

    @property
    def now(self) -> float:
        """Current simulation time in cycles."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (for tests/diagnostics)."""
        return self._n_fired

    @property
    def events_scheduled(self) -> int:
        """Number of events ever scheduled on this engine."""
        return self._seq

    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._queue)

    @property
    def stats(self) -> EngineStats:
        """Throughput snapshot: events fired, wall time, events/sec."""
        rate = (
            self._n_fired / self._wall_s if self._wall_s >= _MIN_METER_SECONDS else 0.0
        )
        return EngineStats(
            events_fired=self._n_fired,
            events_scheduled=self._seq,
            wall_seconds=self._wall_s,
            events_per_sec=rate,
            sim_time=self._now,
            pending=len(self._queue),
            batched_events=self._n_batched,
        )

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        tie = float(self._tie_rng.random()) if self._tie_rng is not None else float(seq)
        event = Event((self._now + delay, tie, seq, callback, args))
        heappush(self._queue, event)
        return event

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``.

        The event fires at ``now + (time - now)``, which in floating
        point need not equal ``time``.  Every pinned table and digest was
        produced with that expression; firing at ``time`` itself can move
        events, so it belongs to a change that re-pins them.
        """
        now = self._now
        if not time >= now:  # also rejects NaN
            raise SimulationError(f"cannot schedule at t={time} which is before now={now}")
        seq = self._seq
        self._seq = seq + 1
        tie = float(self._tie_rng.random()) if self._tie_rng is not None else float(seq)
        event = Event((now + (time - now), tie, seq, callback, args))
        heappush(self._queue, event)
        return event

    # ------------------------------------------------------------------
    # Retry batching seams (:class:`repro.ring.batch.BatchAdvancer`)
    # ------------------------------------------------------------------

    def _consume_seq(self) -> int:
        """Take the next sequence number without queueing an event.

        The retry batcher advancing a chain in closed form consumes
        one ``seq`` per virtual schedule, so ``events_scheduled`` and all
        later FIFO tie-break keys are bit-identical to per-event dispatch.
        Only valid while same-instant ties are FIFO (the batcher falls
        back when :meth:`shuffle_same_time_ties` is active).
        """
        seq = self._seq
        self._seq = seq + 1
        return seq

    def _repush(
        self, time: float, seq: int, callback: Callable[..., None], args: tuple
    ) -> Event:
        """Materialize a virtually-scheduled event under its original key.

        ``seq`` must have come from :meth:`_consume_seq`; the entry gets
        the exact ``(time, float(seq), seq)`` heap key the per-event path
        would have given it, so subsequent dispatch order is unchanged.
        """
        event = Event((time, float(seq), seq, callback, args))
        heappush(self._queue, event)
        return event

    def step(self) -> bool:
        """Fire the next non-cancelled event.  Returns False when idle."""
        before = self._n_fired
        self._run_guarded(None, 1)
        return self._n_fired != before

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, ``until`` cycles pass, or
        ``max_events`` further events fire.

        ``until`` is an absolute simulation time; events scheduled
        beyond it remain queued and ``now`` advances to ``until``.
        """
        if self.audit_hook is not None or self.probe is not None or until is not None:
            self._run_guarded(until, max_events)
            return
        # Fast path: no audit hook, no probe, no horizon.  Pops with
        # everything hot in locals; the only attribute writes per event
        # are the clock and the fired counter (both observable from
        # callbacks, so they must stay current).  The budget is read
        # against ``_n_fired`` itself because a batcher's closed-form
        # fires count too.
        queue = self._queue
        pop = heappop
        limit = None if max_events is None else self._n_fired + max_events
        prev_limit, prev_until = self._fire_limit, self._active_until
        self._fire_limit = limit
        self._active_until = None
        start = perf_counter()
        try:
            while queue:
                if limit is not None and self._n_fired >= limit:
                    return
                time, _tie, _seq, callback, args = pop(queue)
                if callback is None:
                    continue  # cancelled
                if time < self._now:
                    raise SimulationError(
                        f"event queue corrupt: event at {time} < now {self._now}"
                    )
                self._now = time
                self._n_fired += 1
                callback(*args)
        finally:
            self._fire_limit = prev_limit
            self._active_until = prev_until
            self._wall_s += perf_counter() - start

    def _run_guarded(self, until: float | None, max_events: int | None) -> None:
        """The general loop: audit hook, probe, ``until`` horizon, event
        budget.

        This is the single place that skips cancelled heap entries for
        the guarded paths; :meth:`step` delegates here too, so there is
        exactly one other pop site (the fast loop in :meth:`run`).
        """
        queue = self._queue
        pop = heappop
        audit = self.audit_hook
        probe = self.probe
        limit = None if max_events is None else self._n_fired + max_events
        prev_limit, prev_until = self._fire_limit, self._active_until
        self._fire_limit = limit
        self._active_until = until
        start = perf_counter()
        try:
            while queue:
                if limit is not None and self._n_fired >= limit:
                    return  # budget exhausted: do not advance to `until`
                event = queue[0]
                callback = event[3]
                if callback is None:
                    pop(queue)  # cancelled
                    continue
                time = event[0]
                if until is not None and time > until:
                    break
                pop(queue)
                if time < self._now:
                    raise SimulationError(
                        f"event queue corrupt: event at {time} < now {self._now}"
                    )
                self._now = time
                self._n_fired += 1
                if audit is not None:
                    audit(event)
                if probe is not None:
                    probe(time)
                callback(*event[4])
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._fire_limit = prev_limit
            self._active_until = prev_until
            self._wall_s += perf_counter() - start
