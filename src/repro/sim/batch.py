"""Macro-event batching: closed-form advancement of self-clocked chains.

A *chain* is an event sequence with a special shape: each firing does a
bounded piece of work and schedules exactly one successor, and the work
touches state no other pending event reads before the chain's next
firing.  The KSR hardware ``get_subpage`` retry loop is the canonical
case — under lock contention >90 % of all engine events are such
retries (:mod:`repro.ring.batch`).

For chains, per-event heap dispatch is pure overhead: pop, allocate,
push, dispatch — for one arithmetic step.  :class:`MacroAdvancer`
removes it.  Each chain keeps **one** real engine event (its *anchor*).
When an anchor fires, the advancer opens a *window*: as long as the
earliest pending chain step sorts strictly before the earliest real
event in the engine queue, that step cannot interact with anything else
and is executed *virtually* — same arithmetic, same RNG draws, same
counter updates, same probe calls — without ever touching the engine
heap.  Chain anchors that surface at the queue head during a window are
absorbed into it.  The window closes at the first real event boundary,
the run horizon, or the event budget; every chain still virtual is then
re-materialized under its original ``(time, seq)`` key.

The layer is always on: every :class:`~repro.machine.ksr.KsrMachine`
installs it.  The per-event path remains for audits, tie shuffling and
fault seams (below), and as the reference the equivalence tests run by
clearing ``CoherenceProtocol.batch_advancer``.  The contract is
**byte-identity**: a batched run fires the same events at the same
times in the same order, consumes the same RNG values, and leaves every
counter equal to the per-event run — ``Engine.stats`` merely reports
how many fires were closed-form under ``batched_events``.  Guarantees
and fallbacks:

* ``seq`` parity — each virtual schedule consumes one engine sequence
  number (:meth:`Engine._consume_seq`), so FIFO tie-break keys of all
  later events are unchanged.
* order parity — a virtual step runs only while its ``(time, tie,
  seq)`` key sorts before every queued event, which is exactly when the
  per-event loop would have popped it next.
* observability parity — :attr:`Engine.probe` is called per virtual
  fire; chain work invokes the same ring probes the per-event path
  does.
* audit fallback — with :attr:`Engine.audit_hook` installed or
  same-time tie shuffling active, anchors fire per-event (the auditors
  need real :class:`Event` objects and non-FIFO ties break the key
  proof); chain *work* is unchanged, so timing is still identical.
* budget/horizon parity — virtual fires count against
  ``Engine.run(max_events=...)`` budgets and stop at ``until`` exactly
  where per-event dispatch would.

Subclasses supply the chain payload (:class:`MacroChain` subclass with
extra slots) and the per-step work (:meth:`MacroAdvancer._step`).
Domain-specific batchability conditions — fault seams, probes with
write access — are the subclass's responsibility at chain-start time;
see :meth:`repro.ring.batch.BatchAdvancer.start_gsp_chain`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

from repro.sim.engine import Engine, Event

__all__ = ["MacroChain", "MacroAdvancer", "BATCH_VERSION"]

#: Semantic version of the macro-event layer, folded into the sweep
#: result-cache key (:mod:`repro.experiments.sweep`).  Bump on any
#: change that could alter what a batched run computes — the cache must
#: never serve values produced by different batching semantics.
BATCH_VERSION = 1


class MacroChain:
    """One self-clocked event chain managed by a :class:`MacroAdvancer`.

    Duck-compatible with :class:`~repro.sim.engine.Event` where it
    matters: holders of a chain (e.g. a protocol waiter record) call
    :meth:`cancel` exactly as they would on the event it replaces.
    """

    __slots__ = ("time", "seq", "event", "cancelled")

    def __init__(self) -> None:
        #: Absolute time of the chain's next (pending) step.
        self.time = 0.0
        #: Engine sequence number reserved for that step.
        self.seq = -1
        #: The real anchor event when materialized, else ``None``.
        self.event: Optional[Event] = None
        self.cancelled = False

    def cancel(self) -> None:
        """Stop the chain (idempotent); mirrors :meth:`Event.cancel`."""
        self.cancelled = True
        event = self.event
        if event is not None:
            event.cancel()
            self.event = None


class MacroAdvancer:
    """Window machinery shared by all chain kinds.

    Holds no simulation state of its own beyond the in-window
    bookkeeping; between events every live chain owns a real anchor in
    the engine queue, so the queue remains the single source of truth
    for pending work (``Engine.pending``, deadlock checks).
    """

    def __init__(self, engine: Engine):
        self._engine = engine
        #: In-window min-heap of pending virtual steps: (time, seq, chain).
        self._vheap: list[tuple[float, int, MacroChain]] = []
        #: Chains currently without a real anchor (window-local).
        self._virtual: list[MacroChain] = []
        #: The one callback object all anchors carry; identity-compared
        #: against queue heads to recognize absorbable anchors.
        self._anchor_cb = self._anchor_fired

    # -- subclass surface ----------------------------------------------

    def _step(self, chain: MacroChain, at: float) -> float:
        """Execute one chain step at time ``at``; return the delay to
        the next step.  Must replicate the per-event callback's work
        bit-for-bit (same float operations in the same order, same RNG
        draws, same counters and probes)."""
        raise NotImplementedError

    # -- chain lifecycle -----------------------------------------------

    def _start(self, chain: MacroChain, delay: float) -> MacroChain:
        """Schedule the chain's first step as a real anchor event.

        Goes through :meth:`Engine.schedule`, so it consumes the same
        sequence number the per-event path's first schedule would.
        """
        event = self._engine.schedule(delay, self._anchor_cb, chain)
        chain.event = event
        chain.time = event.time
        chain.seq = event.seq
        return chain

    def _batchable(self) -> bool:
        """Whether virtual windows may open right now."""
        engine = self._engine
        return engine.audit_hook is None and engine._tie_rng is None

    # -- the window ----------------------------------------------------

    def _anchor_fired(self, chain: MacroChain) -> None:
        """Anchor callback: run this chain's due step, then advance
        every eligible chain in closed form until a real event, the
        horizon, or the budget intervenes."""
        engine = self._engine
        chain.event = None
        at = engine._now
        if not self._batchable():
            # Audit mode: per-event anchors only.  The step itself is
            # identical, so simulated timing does not depend on this.
            delay = self._step(chain, at)
            event = engine.schedule(delay, self._anchor_cb, chain)
            chain.event = event
            chain.time = event.time
            chain.seq = event.seq
            return
        vheap = self._vheap
        virtual = self._virtual
        delay = self._step(chain, at)
        chain.seq = engine._consume_seq()
        chain.time = at + delay
        heappush(vheap, (chain.time, chain.seq, chain))
        virtual.append(chain)
        queue = engine._queue
        anchor_cb = self._anchor_cb
        # Absorb fellow anchors surfacing at the queue head: their steps
        # join the window under the very key they were queued with.  No
        # event fires and nothing is scheduled while the window runs, so
        # once a non-anchor head is found it bounds the whole window.
        while queue:
            head = queue[0]
            head_cb = head[3]
            if head_cb is None:
                heappop(queue)  # cancelled
                continue
            if head_cb is anchor_cb:
                heappop(queue)
                other = head[4][0]
                other.event = None
                heappush(vheap, (other.time, other.seq, other))
                virtual.append(other)
                continue
            break
        if queue:
            head = queue[0]
            head_time = head[0]
            head_tie = head[1]
        else:
            head_time = None
            head_tie = 0.0
        until = engine._active_until
        limit = engine._fire_limit
        probe = engine.probe
        consume = engine._consume_seq
        step = self._step
        while True:
            while vheap:
                t_v, seq_v, ch = vheap[0]
                if ch.cancelled or seq_v != ch.seq:
                    heappop(vheap)  # stale entry (defensive; see module doc)
                    continue
                break
            else:
                break
            if head_time is not None and not (
                t_v < head_time or (t_v == head_time and float(seq_v) < head_tie)
            ):
                break
            if until is not None and t_v > until:
                break
            if limit is not None and engine._n_fired >= limit:
                break
            heappop(vheap)
            engine._now = t_v
            engine._n_fired += 1
            engine._n_batched += 1
            if probe is not None:
                probe(t_v)
            delay = step(ch, t_v)
            ch.seq = consume()
            ch.time = t_v + delay
            heappush(vheap, (ch.time, ch.seq, ch))
        # Window closed: every still-virtual chain returns to the engine
        # queue under its reserved (time, seq) key.
        repush = engine._repush
        for ch in virtual:
            if not ch.cancelled and ch.event is None:
                ch.event = repush(ch.time, ch.seq, anchor_cb, (ch,))
        virtual.clear()
        vheap.clear()
