"""Cycle-level model of one slotted, pipelined, unidirectional ring.

The lowest-level KSR ring carries 24 slots organised as two
address-interleaved sub-rings of 12 slots each; a cell injects a
transaction into a passing empty slot of the sub-ring selected by the
subpage address, and because the ring is unidirectional the combined
request→responder→response path is one full circuit regardless of the
responder's position.

The model makes slot occupancy explicit:

* a transaction waits for the earliest free slot of its sub-ring (plus
  a jitter in ``[0, slot_spacing)`` representing alignment with the
  next passing slot),
* holds that slot for one full circuit,
* completes after circuit + protocol-overhead cycles.

Round-robin fairness falls out of "earliest free slot" ordering;
forward progress is guaranteed because slots are always released after
one circuit.

Grant selection keeps each sub-ring's slots in a min-heap of
``(free_time, slot_index)`` pairs, so picking the earliest-free slot is
O(log slots) instead of a linear scan.  The heap's lexicographic order
(earliest free time, then lowest slot index) is exactly the order the
old ``min()`` scan produced, so grant sequences are bit-for-bit
identical (verified by ``tests/ring/test_slotted_ring.py``).

Faults are opt-in through two seams (:mod:`repro.faults`): a
``fault_hook`` that may declare a delivered packet corrupted — the
transaction then re-claims a real slot per retry (burning bandwidth)
until the hook accepts it or declares a timeout — and a
``fault_jitter`` source adding degraded-slot alignment delay.  Both are
``None`` by default and cost one branch; with no hook installed a
transaction always succeeds on its first attempt with
:attr:`TransactionOutcome.OK`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from heapq import heapreplace
from typing import Callable, Optional, Union

import numpy as np

from repro.errors import ConfigError
from repro.machine.config import RingConfig

__all__ = ["RingGrant", "SlottedRing", "TransactionOutcome"]

# Determinism sinks for `ksr-analyze flow` (KSR110): slot grant
# ordering is replay-sensitive — request arguments must not depend on
# wall clock, address hashes, or set iteration order.
__ksr_flow_sinks__ = ("SlottedRing.transact", "SlottedRing._claim")

#: Slot-alignment jitter values drawn from the ring's private RNG
#: stream per batch (one numpy call amortised over many transactions).
_JITTER_BATCH = 256


class TransactionOutcome(IntEnum):
    """How a (possibly multi-leg) ring transaction was delivered.

    Ordered by severity so aggregating a path is ``max()`` over legs.
    Before the fault subsystem, delivery was implicitly always-success;
    ``OK`` is that path and remains the only outcome unless a
    :mod:`repro.faults` hook is installed.
    """

    #: Delivered on the first attempt.
    OK = 0
    #: Delivered after one or more CRC-detected corruptions and retries.
    RETRIED = 1
    #: Retry budget exhausted; delivery escalated (counted as a timeout).
    TIMED_OUT = 2


#: A fault hook's verdict on one delivered packet: ``None`` accepts it,
#: a float re-requests a slot at that absolute time (retry w/ backoff),
#: ``TIMED_OUT`` gives up after the bounded retries.
FaultVerdict = Union[float, TransactionOutcome, None]


@dataclass(slots=True, eq=False)
class RingGrant:
    """Timing of one granted ring transaction."""

    #: Time the transaction was requested.
    requested_at: float
    #: Time the slot was first claimed (requested_at + wait).
    injected_at: float
    #: Time the (final, accepted) response arrived back at the requester.
    completed_at: float
    #: Which sub-ring carried it.
    subring: int
    #: Slots claimed in total (1 + retries forced by packet corruption).
    attempts: int = 1
    #: How delivery concluded (always ``OK`` without a fault hook).
    outcome: TransactionOutcome = TransactionOutcome.OK

    @property
    def wait_cycles(self) -> float:
        """Queueing delay before a free slot passed by."""
        return self.injected_at - self.requested_at

    @property
    def total_cycles(self) -> float:
        """Request-to-response latency including queueing and any
        fault-forced retries."""
        return self.completed_at - self.requested_at


class SlottedRing:
    """One ring level with explicit slot bookkeeping.

    Parameters
    ----------
    config:
        Ring geometry and timing.
    rng:
        Source of the slot-alignment jitter.  With a seeded generator
        the whole simulation is reproducible.  The generator becomes
        private to this ring: jitter values are drawn from it in
        batches, so interleaving other draws on the same generator
        would not be reproducible anyway.
    """

    def __init__(self, config: RingConfig, rng: np.random.Generator):
        if config.total_slots < 1:
            raise ConfigError("ring must carry at least one slot")
        self.config = config
        self.rng = rng
        # Per-sub-ring min-heap of (earliest free time, slot index).
        # Initial entries are already heap-ordered.
        self._free = [
            [(0.0, k) for k in range(config.slots_per_subring)]
            for _ in range(config.n_subrings)
        ]
        # Scalars hoisted out of the per-transaction path (RingConfig
        # derived values are properties).
        self._n_subrings = config.n_subrings
        self._spacing = config.slot_spacing_cycles
        self._hold = config.slot_hold_cycles
        self._circuit = config.circuit_cycles
        self._overhead = config.protocol_overhead_cycles
        self._jitter: list[float] = []
        self.n_transactions = 0
        self.total_wait_cycles = 0.0
        self.total_transit_cycles = 0.0
        #: Name used by observability exports ("leaf0", "level1", ...);
        #: assigned by :class:`~repro.ring.hierarchy.RingHierarchy`.
        self.label = "ring"
        #: Opt-in observability probe called per transaction with
        #: ``(ring, requested_at, wait_cycles, transit_cycles)`` — see
        #: :mod:`repro.obs`.  ``None`` (the default) costs one branch.
        self.probe: Optional[Callable[["SlottedRing", float, float, float], None]] = None
        #: Opt-in fault seam called per delivered packet with
        #: ``(ring, subring, completed_at, attempt)``; returns a
        #: :data:`FaultVerdict`.  Installed by
        #: :class:`repro.faults.FaultInjector` for lossy rings.
        self.fault_hook: Optional[
            Callable[["SlottedRing", int, float, int], FaultVerdict]
        ] = None
        #: Opt-in extra slot-alignment delay per claim (degraded slot
        #: timing margins); draws must come from the fault injector's
        #: own stream, never this ring's workload stream.
        self.fault_jitter: Optional[Callable[[], float]] = None

    def subring_of(self, subpage_id: int) -> int:
        """Sub-ring carrying traffic for ``subpage_id`` (address
        interleaving: consecutive subpages alternate sub-rings)."""
        return subpage_id % self._n_subrings

    def transact(
        self,
        now: float,
        subpage_id: int,
        *,
        overhead_cycles: float | None = None,
    ) -> RingGrant:
        """Claim a slot at ``now`` and return the transaction timing.

        ``overhead_cycles`` overrides the configured per-transaction
        protocol overhead (the hierarchy passes 0 for intermediate legs
        of a multi-ring path).
        """
        if overhead_cycles is None:
            overhead_cycles = self._overhead
        subring = subpage_id % self._n_subrings
        injected, completed = self._claim(now, subring, overhead_cycles)
        hook = self.fault_hook
        if hook is None:
            return RingGrant(now, injected, completed, subring)
        attempts = 1
        outcome = TransactionOutcome.OK
        while True:
            verdict = hook(self, subring, completed, attempts)
            if verdict is None:
                break
            if verdict is TransactionOutcome.TIMED_OUT:
                outcome = TransactionOutcome.TIMED_OUT
                break
            # CRC failure: the retry claims a real slot at the hook's
            # backoff time, so lossy rings burn genuine bandwidth.
            _, completed = self._claim(verdict, subring, overhead_cycles)
            attempts += 1
            outcome = TransactionOutcome.RETRIED
        return RingGrant(now, injected, completed, subring, attempts, outcome)

    def _claim(
        self, now: float, subring: int, overhead_cycles: float
    ) -> tuple[float, float]:
        """Claim one slot requested at ``now``; returns (injected, completed).

        The single place slots are granted: every claim — first attempt
        or fault retry — draws jitter, updates the heap and counters,
        and notifies the probe, so retries are indistinguishable from
        fresh traffic to contention and observability.
        """
        heap = self._free[subring]
        # Batched jitter: one uniform(0, spacing, size=N) call consumes
        # exactly the same stream values as N single draws, so batching
        # changes no simulated timing (popped from the end in draw order).
        buf = self._jitter
        if not buf:
            self._refill_jitter()
        earliest = now + buf.pop()
        if self.fault_jitter is not None:
            earliest += self.fault_jitter()
        # earliest-free slot of this sub-ring (round-robin fairness)
        free, slot = heap[0]
        injected = earliest if earliest > free else free
        heapreplace(heap, (injected + self._hold, slot))
        completed = injected + self._circuit + overhead_cycles
        self.n_transactions += 1
        self.total_wait_cycles += injected - now
        self.total_transit_cycles += completed - injected
        if self.probe is not None:
            self.probe(self, now, injected - now, completed - injected)
        return injected, completed

    def _refill_jitter(self) -> None:
        """Refill the batched jitter buffer from this ring's RNG.

        The single refill site, shared with the retry batcher
        (:class:`repro.ring.batch.BatchAdvancer`): whichever path
        empties the buffer draws the next 256 values identically, so
        batched and per-event runs consume the same stream.
        """
        buf = self._jitter
        buf[:] = self.rng.uniform(0.0, self._spacing, size=_JITTER_BATCH).tolist()
        buf.reverse()

    def piggyback_window(self, grant: RingGrant) -> tuple[float, float]:
        """Time window during which the response packet of ``grant``
        circulates — other cells' place-holders snarf within it."""
        return (grant.injected_at, grant.completed_at)

    @property
    def mean_wait_cycles(self) -> float:
        """Average queueing delay per transaction so far."""
        if self.n_transactions == 0:
            return 0.0
        return self.total_wait_cycles / self.n_transactions

    def utilization(self, horizon: float) -> float:
        """Fraction of slot-cycles consumed up to time ``horizon``."""
        if horizon <= 0:
            return 0.0
        busy = self.total_transit_cycles
        return min(1.0, busy / (self.config.total_slots * horizon))
