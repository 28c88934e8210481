"""Closed-form advance of hardware ``get_subpage`` retry chains.

Under lock contention the engine's event population is dominated by
:meth:`repro.coherence.protocol.CoherenceProtocol._block_on_atomic`
retries: each blocked cell's request circulates once per interval,
burning a real ring slot, and reschedules itself off its own completion
time.  On the Figure 3 acceptance workload these retries are ~94 % of
all events.  Each one is a fixed arithmetic step over the sub-ring's
``(free_time, slot)`` grant heap, and it touches nothing another pending
event reads before the chain's next retry.

For such a chain per-event heap dispatch is pure overhead, so each
chain (:class:`RetryChain`) keeps **one** real engine event, its
*anchor*.  When an anchor fires, :class:`BatchAdvancer` opens a
*window*: it absorbs the fellow anchors at the queue head, and as long
as the earliest pending retry sorts strictly before the earliest real
event in the engine queue, that retry cannot interact with anything
else and runs *virtually* — same arithmetic, same RNG draws, same
counters, same probe calls — without touching the engine heap.  The
window closes at the first real event, the run horizon or the event
budget; every chain still virtual then returns to the queue under its
original ``(time, seq)`` key.

The contract is **byte-identity**: a batched run fires the same events
at the same times in the same order, consumes the same RNG values and
leaves every counter equal to the per-event run; ``Engine.stats``
merely reports how many fires were closed-form under
``batched_events``.  It holds because:

* each virtual retry consumes one engine sequence number
  (:meth:`Engine._consume_seq`), so the FIFO tie-break keys of all
  later events are unchanged;
* a virtual retry runs only while its ``(time, seq)`` key sorts before
  every queued event, which is exactly when the per-event loop would
  have popped it next — chains interact only through the shared grant
  heap, and the window runs them in global key order;
* :attr:`Engine.probe` is called per virtual fire and the retry calls
  the ring probe inside :meth:`SlottedRing._claim`, so an observed run
  captures byte-identical series;
* virtual fires count against ``Engine.run(max_events=...)`` budgets and
  stop at ``until`` exactly where per-event dispatch would.

:meth:`BatchAdvancer.batchable` is the one place that decides whether
retries may run in closed form: not under an engine audit hook (the
auditors need real :class:`Event` objects), not with shuffled same-time
ties (non-FIFO ties break the key argument), and not while protocol
fault accounting is on (every fault seam — ring corruption hooks, slot
jitter, stalls, dead cells — comes with it, and those seams draw from
their own RNG streams and charge per-retry counters the closed form
does not replicate).  It is consulted where a chain would start, so
the protocol's per-event ``hardware_retry`` closure carries the retries
instead, and where an anchor fires, so a chain started before an audit
hook was installed fires one real event per retry.  Tests and
``benchmarks/engine_bench.py`` force the per-event reference through
this predicate alone.  Release and hand-off traffic needs no fallback:
``_drain_atomic_waiters`` cancels a chain exactly as it would cancel
the retry event.

A retry claims its slot through :meth:`SlottedRing._claim` itself, the
one site lint rule KSR114 (``ksr-analyze lint``) lets mutate a grant
heap, so the grant arithmetic exists once.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Optional

from repro.sim.engine import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.coherence.protocol import CoherenceProtocol
    from repro.memory.perfmon import PerfMonitor
    from repro.ring.slotted_ring import SlottedRing

__all__ = ["BatchAdvancer", "RetryChain"]


class RetryChain:
    """One blocked cell's self-clocked retry loop.

    Stands in for the retry event in the protocol's waiter record, so it
    offers the one :class:`~repro.sim.engine.Event` method holders call,
    :meth:`cancel`.
    """

    __slots__ = ("event", "perfmon", "ring", "subring", "interval")

    def __init__(
        self, perfmon: "PerfMonitor", ring: "SlottedRing", subring: int, interval: float
    ) -> None:
        #: The anchor event holding the chain's next retry; ``None`` only
        #: inside a window, where no protocol code runs to cancel it.
        self.event: Optional[Event] = None
        self.perfmon = perfmon
        self.ring = ring
        self.subring = subring
        self.interval = interval

    def cancel(self) -> None:
        """Stop the chain (idempotent); mirrors :meth:`Event.cancel`."""
        event = self.event
        if event is not None:
            event.cancel()
            self.event = None


class BatchAdvancer:
    """Runs the ``get_subpage`` retry chains of one machine's protocol.

    Holds no simulation state between events: every live chain owns a
    real anchor in the engine queue then, so the queue remains the
    single source of truth for pending work (``Engine.pending``,
    deadlock checks, :meth:`KsrMachine.copy`).
    """

    def __init__(self, protocol: "CoherenceProtocol"):
        self._protocol = protocol
        self._engine = protocol.engine
        self._hierarchy = protocol.hierarchy
        #: The one callback object all anchors carry; identity-compared
        #: against queue heads to recognize absorbable anchors.
        self._anchor_cb = self._anchor_fired

    def batchable(self) -> bool:
        """Whether retries may run in closed form right now."""
        engine = self._engine
        return (
            engine.audit_hook is None
            and engine._tie_rng is None
            and not self._protocol.fault_accounting
        )

    def start(
        self, perfmon: "PerfMonitor", cell_id: int, subpage_id: int, interval: float
    ) -> RetryChain:
        """Begin the retry chain of ``cell_id`` blocked on ``subpage_id``.

        The first retry is a real anchor event scheduled through
        :meth:`Engine.schedule`, so it takes the sequence number the
        per-event path's first schedule would.
        """
        hierarchy = self._hierarchy
        ring = hierarchy.leaf_rings[hierarchy._ring_index[cell_id]]
        chain = RetryChain(perfmon, ring, subpage_id % ring._n_subrings, interval)
        chain.event = self._engine.schedule(interval, self._anchor_cb, chain)
        return chain

    def _anchor_fired(self, chain: RetryChain) -> None:
        """Anchor callback: run this chain's due retry, then advance
        every chain whose next retry sorts before the real queue head,
        within the run's horizon and budget."""
        engine = self._engine
        anchor_cb = self._anchor_cb
        chain.event = None
        batching = self.batchable()
        vheap: list[tuple[float, int, RetryChain]] = []
        if batching:
            # Absorb fellow anchors at the queue head: their retries join
            # the window under the very key they were queued with.  No
            # real event fires and nothing is scheduled while the window
            # runs, so the first other head bounds the whole window.
            queue = engine._queue
            while queue:
                head = queue[0]
                head_cb = head[3]
                if head_cb is None:
                    heappop(queue)  # cancelled
                elif head_cb is anchor_cb:
                    heappop(queue)
                    other = head[4][0]
                    other.event = None
                    heappush(vheap, (head[0], head[2], other))
                else:
                    break
            if queue:
                head_time = queue[0][0]
                head_tie = queue[0][1]
            else:
                head_time = None
                head_tie = 0.0
            until = engine._active_until
            limit = engine._fire_limit
            probe = engine.probe
            consume = engine._consume_seq
        ch = chain
        at = engine._now
        while True:
            # One retry: the per-event ``hardware_retry`` closure calling
            # ``RingHierarchy.transact`` (same ring, no injector) calling
            # ``SlottedRing._claim``, minus the result objects that path
            # discards.  ``fault_jitter`` is ``None`` while batchable.
            perfmon = ch.perfmon
            perfmon.get_subpage_retries += 1
            ring = ch.ring
            _, completed = ring._claim(at, ch.subring, ring._overhead)
            perfmon.ring_transactions += 1
            delta = completed - at
            perfmon.ring_cycles += delta
            interval = ch.interval
            delay = delta if delta > interval else interval
            if not batching:
                # Per-event anchor; the retry above is the same either way.
                ch.event = engine.schedule(delay, anchor_cb, ch)
                return
            heappush(vheap, (at + delay, consume(), ch))
            at, seq, ch = vheap[0]
            if head_time is not None and not (
                at < head_time or (at == head_time and float(seq) < head_tie)
            ):
                break
            if until is not None and at > until:
                break
            if limit is not None and engine._n_fired >= limit:
                break
            heappop(vheap)
            engine._now = at
            engine._n_fired += 1
            engine._n_batched += 1
            if probe is not None:
                probe(at)
        # Window closed: every chain returns to the engine queue under
        # its reserved (time, seq) key.  The keys are unique, so the
        # order of the pushes does not matter.
        repush = engine._repush
        for time, seq, ch in vheap:
            ch.event = repush(time, seq, anchor_cb, (ch,))
