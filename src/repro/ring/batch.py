"""Closed-form grant coalescing for hardware ``get_subpage`` retries.

Under lock contention the engine's event population is dominated by
:meth:`repro.coherence.protocol.CoherenceProtocol._block_on_atomic`
retry events: each blocked cell's request circulates once per interval,
burning a real ring slot, and reschedules itself off its own completion
time.  On the Figure 3 acceptance workload these retries are ~94 % of
all events.  Each one is a fixed arithmetic step over the sub-ring's
``(free_time, slot)`` grant heap — precisely the chain shape
:class:`repro.sim.batch.MacroAdvancer` advances in closed form.

Contention *between* retry chains needs no fallback: chains interact
only through the shared grant heap, and the window executes steps in
exact global ``(time, seq)`` order, so each step sees the heap state
the per-event run would have shown it.  What does force the per-event
path:

* any fault seam — an attached injector's ring hooks
  (``fault_hook``/``fault_jitter``), hierarchy-level stall/dead-cell
  shaping, or protocol fault accounting — because those seams draw from
  their own RNG streams and charge per-retry counters the closed form
  does not replicate;
* determinism audits (engine audit hook or shuffled ties);
* release/hand-off traffic — ``_drain_atomic_waiters`` cancels the
  chain exactly as it would cancel the retry event.

Observability probes are *not* a fallback condition: the ring probe is
invoked inside the step and the engine probe once per virtual fire, so
an observed batched run captures byte-identical series.

Every machine installs the advancer; the per-event retry closure
remains the path of audits, tie shuffling and fault seams, and the
reference the equivalence tests compare against.  A step claims its
slot through :meth:`SlottedRing._claim` itself, the one site lint rule
KSR114 (``ksr-analyze lint``) lets mutate a grant heap, so the grant
arithmetic exists once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.batch import MacroAdvancer, MacroChain
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.perfmon import PerfMonitor
    from repro.ring.hierarchy import RingHierarchy

__all__ = ["BatchAdvancer"]


class _GspRetryChain(MacroChain):
    """Payload of one blocked cell's self-clocked retry loop."""

    __slots__ = ("perfmon", "ring", "subring", "interval")


class BatchAdvancer(MacroAdvancer):
    """Advances ``get_subpage`` retry chains in closed form.

    Wired by every :class:`repro.machine.ksr.KsrMachine` onto
    ``CoherenceProtocol.batch_advancer``.  Setting that attribute to
    ``None`` (standalone protocols, tests forcing the reference) keeps
    the per-event retry closures.
    """

    def __init__(self, engine: Engine, hierarchy: "RingHierarchy"):
        super().__init__(engine)
        self._hierarchy = hierarchy

    def gsp_chain_allowed(self) -> bool:
        """Machine-level batchability: no audits, no fault shaping.

        Checked at chain-start time; fault injectors attach before a
        run begins, so a chain admitted here stays clean for its whole
        life.  (Per-ring hooks are re-checked in
        :meth:`start_gsp_chain`.)
        """
        engine = self._engine
        return (
            engine.audit_hook is None
            and engine._tie_rng is None
            and self._hierarchy.fault_injector is None
        )

    def start_gsp_chain(
        self,
        perfmon: "PerfMonitor",
        cell_id: int,
        subpage_id: int,
        interval: float,
    ) -> "_GspRetryChain | None":
        """Begin a retry chain for ``cell_id`` blocked on ``subpage_id``.

        Returns ``None`` when the cell's leaf ring carries fault hooks —
        the caller then falls back to the per-event retry closure.  The
        returned chain exposes ``cancel()`` and substitutes for the
        retry event in the protocol's waiter record.
        """
        hierarchy = self._hierarchy
        ring = hierarchy.leaf_rings[hierarchy._ring_index[cell_id]]
        if ring.fault_hook is not None or ring.fault_jitter is not None:
            return None
        chain = _GspRetryChain()
        chain.perfmon = perfmon
        chain.ring = ring
        chain.subring = subpage_id % ring._n_subrings
        chain.interval = interval
        self._start(chain, interval)
        return chain

    def _step(self, chain: MacroChain, at: float) -> float:
        """One retry: claim a slot, charge the monitors, self-clock.

        Bit-exact shortcut of the per-event path — the protocol's
        ``hardware_retry`` closure calling ``RingHierarchy.transact``
        (same-ring, no injector) calling ``SlottedRing._claim`` — that
        calls the same claim with the same arguments (``fault_jitter``
        is ``None`` under the chain guard).  Only the ``RingGrant`` /
        ``PathTiming`` result objects, which that path immediately
        discards, are not built.
        """
        perfmon = chain.perfmon  # type: ignore[attr-defined]
        perfmon.get_subpage_retries += 1
        ring = chain.ring  # type: ignore[attr-defined]
        _, completed = ring._claim(at, chain.subring, ring._overhead)  # type: ignore[attr-defined]
        perfmon.ring_transactions += 1
        delta = completed - at
        perfmon.ring_cycles += delta
        interval = chain.interval  # type: ignore[attr-defined]
        return delta if delta > interval else interval
