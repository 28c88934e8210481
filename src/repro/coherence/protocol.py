"""The coherence protocol coordinator.

This is where the KSR's memory behaviour is decided: who responds to a
miss, what gets invalidated, how concurrent traffic to one subpage
serializes, how ``get_subpage`` contention resolves, and how spinning
threads are woken by writes and poststores.

Division of labour with :class:`repro.machine.cell.Cell`: the cell
owns the *local* cost model (sub-cache and local-cache hit charges,
allocation penalties) and drives thread generators; the protocol owns
everything *global* (directory, ring transactions, blocking, wakeups).
All protocol entry points take a continuation ``cont(done_time)`` that
is either invoked synchronously (resolution computable now) or later
through the engine (the requester was blocked on an atomic subpage).

Timing conventions
------------------
* Ownership-changing transactions on one subpage serialize: each is
  gated on, and then advances, the subpage's ``busy-until`` horizon.
  This is the paper's "since these accesses are for the same location
  they get serialized on the ring" — the downfall of the counter
  barrier.
* Shared reads of one subpage combine (read-snarfing): one slot is
  occupied, late arrivals ride the same packet.
* ``get_subpage`` while another cell holds the subpage atomic retries
  over the ring at circuit intervals, consuming real slot bandwidth —
  the grant on release follows *ring order*, not FCFS, exactly as the
  hardware is documented to behave.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.coherence.directory import Directory, DirectoryEntry
from repro.coherence.ops import OutstandingFills
from repro.coherence.snarf import ReadCombiner
from repro.errors import ProtocolError
from repro.machine.config import MachineConfig, WORD_BYTES
from repro.memory.address import subpage_of
from repro.memory.local_cache import SubpageState
from repro.ring.batch import BatchAdvancer
from repro.ring.hierarchy import RingHierarchy
from repro.ring.slotted_ring import TransactionOutcome
from repro.sim.engine import Engine, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.cell import Cell

__all__ = ["CoherenceProtocol", "Watcher"]

Cont = Callable[[float], None]


@dataclass
class Watcher:
    """A thread parked on ``WaitUntil(addr, predicate)``."""

    cell_id: int
    addr: int
    predicate: Callable[[Any], bool]
    cont: Cont
    registered_at: float


@dataclass
class _AtomicWaiter:
    """A ``get_subpage`` (or plain access) blocked on an atomic subpage."""

    cell_id: int
    retry: Callable[[float], None]
    is_gsp: bool
    enqueued_at: float
    #: The pending hardware retry: an engine :class:`Event`, or a
    #: :class:`repro.ring.batch.RetryChain` when the retry loop runs in
    #: closed form.  Both expose ``cancel()``.
    retry_event: Optional[Any] = None


@dataclass
class _Refetch:
    """A group re-read in flight after spinners were invalidated."""

    completes_at: float
    dirty: bool = False


class CoherenceProtocol:
    """Global protocol state for one machine."""

    #: Interval between hardware get_subpage retries, in circuits.
    GSP_RETRY_CIRCUITS = 1.0
    #: Small fixed cost of re-running a blocked access after a release.
    UNBLOCK_PICKUP_CYCLES = 4.0

    def __init__(self, config: MachineConfig, engine: Engine, hierarchy: RingHierarchy):
        self.config = config
        self.engine = engine
        self.hierarchy = hierarchy
        self.cells: list["Cell"] = []
        self.values: dict[int, Any] = {}
        self.directory = Directory()
        self.combiner = ReadCombiner()
        self.fills = OutstandingFills()
        self._busy_until: dict[int, float] = {}
        self._watchers: dict[int, list[Watcher]] = {}
        self._atomic_waiters: dict[int, list[_AtomicWaiter]] = {}
        self._refetch: dict[int, _Refetch] = {}
        self.n_cold_creates = 0
        self.n_wakeups = 0
        #: Opt-in observability probe (see :mod:`repro.obs`): an object
        #: with ``on_invalidations(now, n_losers)``.  ``None`` — the
        #: default — costs one branch per invalidation round.
        self.probe: Optional[Any] = None
        #: Set by :meth:`repro.faults.FaultInjector.attach` when the
        #: plan can actually produce faults; gates the per-transaction
        #: fault bookkeeping so clean machines pay one branch per
        #: transaction and touch no fault counters.
        self.fault_accounting = False
        #: Runs hardware retry loops in closed form while
        #: :meth:`BatchAdvancer.batchable` allows it.
        self.batch_advancer = BatchAdvancer(self)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def register_cell(self, cell: "Cell") -> None:
        """Attach a cell (called by the machine during assembly)."""
        if cell.cell_id != len(self.cells):
            raise ProtocolError("cells must be registered in id order")
        self.cells.append(cell)

    def _charge_faults(self, perfmon: Any, timing: Any) -> None:
        """Book a transaction's fault outcome on the requester's monitor.

        Only called behind :attr:`fault_accounting`, so fault-free runs
        never execute it — keeping their perfmon byte-identical to runs
        predating the fault layer.
        """
        if timing.retries:
            perfmon.ring_retries += timing.retries
        if timing.outcome is TransactionOutcome.TIMED_OUT:
            perfmon.ring_timeouts += 1
        if timing.bypass_hops:
            perfmon.ring_bypass_hops += timing.bypass_hops

    def _same_ring_cells(self, cell_id: int) -> range:
        ring = self.config.ring_of(cell_id)
        lo = ring * self.config.cells_per_ring
        return range(lo, min(lo + self.config.cells_per_ring, self.config.n_cells))

    # ------------------------------------------------------------------
    # Data values (the simulator's authoritative word store)
    # ------------------------------------------------------------------

    def peek(self, addr: int) -> Any:
        """Current value of the 64-bit word at ``addr`` (0 if unwritten)."""
        return self.values.get(addr // WORD_BYTES, 0)

    def poke(self, addr: int, value: Any) -> None:
        """Set the word at ``addr`` (timing handled by the caller)."""
        self.values[addr // WORD_BYTES] = value

    # ------------------------------------------------------------------
    # Subpage serialization gate
    # ------------------------------------------------------------------

    def _gate(self, subpage_id: int, now: float) -> float:
        """Earliest time an ownership op on the subpage may start."""
        return max(now, self._busy_until.get(subpage_id, 0.0))

    def _advance_gate(self, subpage_id: int, until: float) -> None:
        if until > self._busy_until.get(subpage_id, 0.0):
            self._busy_until[subpage_id] = until

    # ------------------------------------------------------------------
    # Shared (read) access
    # ------------------------------------------------------------------

    def acquire_shared(self, cell_id: int, subpage_id: int, now: float, cont: Cont) -> None:
        """Give ``cell_id`` a readable copy; ``cont(done_time)``.

        Callers invoke this only on a local-cache miss or an INVALID
        place-holder; the valid-copy fast path is the cell's business.
        """
        entry = self.directory.entry(subpage_id)
        if entry.atomic and entry.owner != cell_id:
            self._block_on_atomic(cell_id, subpage_id, now, cont, shared=True)
            return
        cell = self.cells[cell_id]
        # An in-flight prefetch satisfies the demand access when it lands.
        pending = self.fills.pending_completion(cell_id, subpage_id, now)
        if pending is not None:
            cont(pending)
            return
        if not entry.sharer_mask and not entry.created:
            # Cold access: COMA first touch allocates locally, no ring.
            self._fill(cell_id, subpage_id, SubpageState.EXCLUSIVE, demand=True, entry=entry)
            self.n_cold_creates += 1
            cont(now)
            return
        # Join a read of the same subpage already circulating (snarf).
        joined = (
            self.combiner.try_join(subpage_id, now)
            if self.config.enable_snarfing
            else None
        )
        if joined is not None:
            self._finish_shared_fill(cell_id, subpage_id, demote_owner=True, demand=True)
            cont(joined)
            return
        # Data exists; a valid copy (or, if everything was evicted, the
        # recalled data) is fetched over the ring.
        responder = self.directory.responder_for(
            subpage_id, cell_id, self._same_ring_cells(cell_id)
        )
        start = self._gate(subpage_id, now)
        timing = self.hierarchy.transact(start, cell_id, responder, subpage_id)
        cell.perfmon.ring_transactions += 1
        cell.perfmon.ring_cycles += timing.completed_at - now
        cell.perfmon.ring_wait_cycles += timing.wait_cycles + (start - now)
        if timing.crossed_rings:
            cell.perfmon.inter_ring_transactions += 1
        if self.fault_accounting:
            self._charge_faults(cell.perfmon, timing)
        self.combiner.begin(subpage_id, start, timing.completed_at)
        self._finish_shared_fill(cell_id, subpage_id, demote_owner=True, demand=True)
        self._snarf_placeholders(subpage_id, timing.completed_at)
        cont(timing.completed_at)

    def _finish_shared_fill(
        self, cell_id: int, subpage_id: int, *, demote_owner: bool, demand: bool = False
    ) -> None:
        entry = self.directory.entry(subpage_id)
        if demote_owner and entry.owner is not None and entry.owner != cell_id:
            owner_cell = self.cells[entry.owner]
            owner_cell.local_cache.set_state(subpage_id, SubpageState.SHARED)
            self.directory.demote_owner(subpage_id)
        self._fill(cell_id, subpage_id, SubpageState.SHARED, demand=demand, entry=entry)

    def _snarf_placeholders(self, subpage_id: int, at: float) -> None:
        """Revalidate every INVALID place-holder as the response passes.

        No-op when an exclusive owner exists: a packet still circulating
        after a newer write got the subpage exclusive carries stale data
        and must not revive anybody.
        """
        if not self.config.enable_snarfing:
            return
        entry = self.directory.entry(subpage_id)
        if entry.owner is not None:
            return
        for holder in sorted(entry.placeholders):
            holder_cell = self.cells[holder]
            if holder_cell.local_cache.snarf(subpage_id):
                holder_cell.perfmon.snarfs += 1
        entry.sharer_mask |= entry.placeholder_mask
        entry.placeholder_mask = 0
        entry.check()

    # ------------------------------------------------------------------
    # Exclusive (write / get_subpage) access
    # ------------------------------------------------------------------

    def acquire_exclusive(
        self,
        cell_id: int,
        subpage_id: int,
        now: float,
        cont: Cont,
        *,
        atomic: bool = False,
    ) -> None:
        """Make ``cell_id`` the exclusive (optionally atomic) owner."""
        entry = self.directory.entry(subpage_id)
        if entry.atomic and entry.owner != cell_id:
            self._block_on_atomic(
                cell_id, subpage_id, now, cont, shared=False, want_atomic=atomic
            )
            return
        cell = self.cells[cell_id]
        if entry.owner == cell_id:
            if atomic and not entry.atomic:
                self.directory.set_atomic(subpage_id, cell_id, True)
                cell.local_cache.set_state(subpage_id, SubpageState.ATOMIC)
            cont(now)
            return
        if not entry.sharer_mask and not entry.placeholder_mask and not entry.created:
            # Cold first touch straight to exclusive ownership (the
            # hottest miss: positional arguments throughout).
            self._fill(
                cell_id,
                subpage_id,
                SubpageState.ATOMIC if atomic else SubpageState.EXCLUSIVE,
                entry,
                atomic,
                True,
            )
            self.n_cold_creates += 1
            cont(now)
            return
        start = self._gate(subpage_id, now)
        timing = self.hierarchy.transact(
            start, cell_id, self._responder_or_none(subpage_id, cell_id), subpage_id
        )
        self._advance_gate(subpage_id, timing.completed_at)
        cell.perfmon.ring_transactions += 1
        cell.perfmon.ring_cycles += timing.completed_at - now
        cell.perfmon.ring_wait_cycles += timing.wait_cycles + (start - now)
        if timing.crossed_rings:
            cell.perfmon.inter_ring_transactions += 1
        if self.fault_accounting:
            self._charge_faults(cell.perfmon, timing)
        self._invalidate_others(subpage_id, cell_id)
        self._fill(
            cell_id,
            subpage_id,
            SubpageState.ATOMIC if atomic else SubpageState.EXCLUSIVE,
            atomic=atomic,
            demand=True,
            entry=entry,
        )
        cont(timing.completed_at)

    def _responder_or_none(self, subpage_id: int, cell_id: int) -> Optional[int]:
        return self.directory.responder_for(
            subpage_id, cell_id, self._same_ring_cells(cell_id)
        )

    def _invalidate_others(self, subpage_id: int, keep_cell: int) -> None:
        losers = self.directory.invalidate_others(subpage_id, keep_cell)
        for loser in losers:
            loser_cell = self.cells[loser]
            loser_cell.local_cache.invalidate(subpage_id)
            loser_cell.subcache.drop_subpage(subpage_id)
            loser_cell.perfmon.invalidations_received += 1
        if losers:
            self.cells[keep_cell].perfmon.invalidations_sent += len(losers)
            if self.probe is not None:
                self.probe.on_invalidations(self.engine.now, len(losers))

    def _fill(
        self,
        cell_id: int,
        subpage_id: int,
        state: SubpageState,
        entry: DirectoryEntry,
        atomic: bool = False,
        demand: bool = False,
    ) -> None:
        """Install a copy at ``cell_id`` and mirror it in ``entry``, the
        subpage's directory entry.

        ``demand`` marks fills triggered by the cell's own access, so
        the cell can charge the 16 KB page-allocation penalty to that
        access (snarfs and prefetch landings are free rides).
        """
        cell = self.cells[cell_id]
        if state is SubpageState.SHARED and cell.local_cache.is_valid(subpage_id):
            # already valid (e.g. combiner join raced a snarf): keep it
            pass
        else:
            fill = cell.local_cache.fill(subpage_id, state)
            if fill.page_allocated:
                cell.perfmon.local_cache_page_allocs += 1
                if demand:
                    cell.pending_page_alloc = True
            for evicted in fill.evicted_subpages:
                if evicted != subpage_id:
                    self.evict(cell, evicted)
        if state is SubpageState.SHARED:
            self.directory.record_fill_shared(subpage_id, cell_id, entry=entry)
        else:
            self.directory.record_fill_exclusive(subpage_id, cell_id, atomic, entry)

    def evict(self, cell: "Cell", subpage_id: int) -> None:
        """Random page replacement removed ``cell``'s copy of the subpage.

        Drops the local-cache copy (already gone when the replacement
        came from :meth:`_fill`), the directory's record of it and any
        sub-cache blocks.  An atomic copy is never a legal victim.
        """
        entry = self.directory.entry(subpage_id)
        if entry.atomic and entry.owner == cell.cell_id:
            raise ProtocolError(f"random replacement evicted atomic subpage {subpage_id}")
        cell.local_cache.drop(subpage_id)
        self.directory.drop_copy(subpage_id, cell.cell_id)
        cell.subcache.drop_subpage(subpage_id)

    # ------------------------------------------------------------------
    # get_subpage / release_subpage
    # ------------------------------------------------------------------

    def get_subpage(self, cell_id: int, addr: int, now: float, cont: Cont) -> None:
        """Acquire the atomic lock on ``addr``'s subpage."""
        subpage_id = subpage_of(addr)
        cell = self.cells[cell_id]
        cell.perfmon.get_subpage_attempts += 1
        self.acquire_exclusive(cell_id, subpage_id, now, cont, atomic=True)

    def release_subpage(self, cell_id: int, addr: int, now: float) -> None:
        """Release the atomic lock; hand off to ring-ordered waiters."""
        subpage_id = subpage_of(addr)
        entry = self.directory.entry(subpage_id)
        if entry.owner != cell_id or not entry.atomic:
            raise ProtocolError(
                f"cell {cell_id} releasing subpage {subpage_id} it does not hold atomic"
            )
        self.directory.set_atomic(subpage_id, cell_id, False)
        self.cells[cell_id].local_cache.set_state(subpage_id, SubpageState.EXCLUSIVE)
        self._drain_atomic_waiters(subpage_id, cell_id, now)

    def _block_on_atomic(
        self,
        cell_id: int,
        subpage_id: int,
        now: float,
        cont: Cont,
        *,
        shared: bool,
        want_atomic: bool = False,
    ) -> None:
        """Park an access behind the current atomic holder, with
        hardware-style periodic ring retries burning slot bandwidth."""
        cell = self.cells[cell_id]

        def retry(at: float) -> None:
            if shared:
                self.acquire_shared(cell_id, subpage_id, at, cont)
            else:
                self.acquire_exclusive(cell_id, subpage_id, at, cont, atomic=want_atomic)

        waiter = _AtomicWaiter(cell_id, retry, is_gsp=want_atomic, enqueued_at=now)
        self._atomic_waiters.setdefault(subpage_id, []).append(waiter)
        interval = self.config.ring.circuit_cycles * self.GSP_RETRY_CIRCUITS
        # The self-clocked retry loop runs as a closed-form chain
        # (repro.ring.batch) unless an audit, tie shuffling or a fault
        # seam needs one real event per retry.
        advancer = self.batch_advancer
        if advancer.batchable():
            waiter.retry_event = advancer.start(cell.perfmon, cell_id, subpage_id, interval)
            return
        # Per-event retries: the fault path and the batching reference.
        # A contended run under them is mostly these events, so bind
        # everything the closure touches once.
        perfmon = cell.perfmon
        engine = self.engine
        schedule = engine.schedule
        transact = self.hierarchy.transact

        def hardware_retry() -> None:
            # The request circulates, is refused, and will try again.
            # A cell has exactly one request outstanding, so the next
            # retry is self-clocked by this packet's own completion —
            # under saturation retries space out to the ring's actual
            # service rate instead of piling bookings into the future.
            perfmon.get_subpage_retries += 1
            at = engine.now
            timing = transact(at, cell_id, None, subpage_id)
            perfmon.ring_transactions += 1
            perfmon.ring_cycles += timing.completed_at - at
            if self.fault_accounting:
                self._charge_faults(perfmon, timing)
            next_delay = max(interval, timing.completed_at - at)
            waiter.retry_event = schedule(next_delay, hardware_retry)

        waiter.retry_event = schedule(interval, hardware_retry)

    def _drain_atomic_waiters(self, subpage_id: int, releaser: int, now: float) -> None:
        waiters = self._atomic_waiters.get(subpage_id)
        if not waiters:
            return
        # Ring order after the releasing cell — explicitly not FCFS.
        def ring_distance(w: _AtomicWaiter) -> tuple[int, float]:
            return ((w.cell_id - releaser) % self.config.n_cells, w.enqueued_at)

        waiters.sort(key=ring_distance)
        first = waiters.pop(0)
        rest = list(waiters)
        waiters.clear()
        for w in (first, *rest):
            if w.retry_event is not None:
                w.retry_event.cancel()
        # The hardware waiter *polls*: it observes the release only when
        # its next retry request circulates past the releaser — on
        # average about half a retry interval after the release.  (This
        # is the asymmetry against software queue locks, whose holders
        # push the hand-off to the spinning waiter via write + snarf.)
        pickup = self.UNBLOCK_PICKUP_CYCLES + 0.5 * self.config.ring.circuit_cycles
        self.engine.schedule(pickup, first.retry, now + pickup)
        stagger = self.UNBLOCK_PICKUP_CYCLES * 2
        for i, w in enumerate(rest):
            at = now + pickup + stagger * (i + 1)
            self.engine.schedule(at - now, w.retry, at)

    # ------------------------------------------------------------------
    # Writes and spinner notification
    # ------------------------------------------------------------------

    def notify_write(self, subpage_id: int, writer: int, done: float) -> None:
        """Called by the cell when a coherent write to a watched subpage
        completes; invalidated spinners trigger one combined re-read."""
        if not self._watchers:
            return  # nobody spins anywhere: the common case
        watchers = self._watchers.get(subpage_id)
        if not watchers:
            return
        inflight = self._refetch.get(subpage_id)
        if inflight is not None and inflight.completes_at > done:
            inflight.dirty = True
            return
        self._start_group_refetch(subpage_id, writer, done)

    def _start_group_refetch(self, subpage_id: int, writer: int, at: float) -> None:
        watchers = self._watchers.get(subpage_id)
        if not watchers:
            return
        # One spinner's re-read; everyone else snarfs the response.
        reader = watchers[0].cell_id
        start = self._gate(subpage_id, at)
        timing = self.hierarchy.transact(start, reader, writer, subpage_id)
        reader_cell = self.cells[reader]
        reader_cell.perfmon.ring_transactions += 1
        reader_cell.perfmon.ring_cycles += timing.total_cycles
        if self.fault_accounting:
            self._charge_faults(reader_cell.perfmon, timing)
        self._refetch[subpage_id] = _Refetch(completes_at=timing.completed_at)
        self.engine.schedule_at(
            timing.completed_at, self._complete_group_refetch, subpage_id, writer
        )

    def _complete_group_refetch(self, subpage_id: int, writer: int) -> None:
        now = self.engine.now
        entry = self.directory.entry(subpage_id)
        if entry.atomic:
            # Cannot revalidate while someone holds the subpage atomic;
            # retry after the gate clears.
            self._refetch.pop(subpage_id, None)
            self.engine.schedule(
                self.config.ring.circuit_cycles,
                lambda: self.notify_write(subpage_id, writer, self.engine.now),
            )
            return
        if entry.has_valid_copy:
            if entry.owner is not None and entry.owner != writer:
                writer = entry.owner
            if entry.owner is not None:
                self.cells[entry.owner].local_cache.set_state(
                    subpage_id, SubpageState.SHARED
                )
                self.directory.demote_owner(subpage_id)
        self._snarf_placeholders(subpage_id, now)
        refetch = self._refetch.pop(subpage_id, None)
        self._evaluate_watchers(subpage_id, now, base_cell=writer)
        if refetch is not None and refetch.dirty and subpage_id in self._watchers:
            self._start_group_refetch(subpage_id, writer, now)

    def notify_poststore(self, subpage_id: int, writer: int, arrival: float) -> None:
        """Poststore packet completed: place-holders were refreshed;
        wake satisfied spinners without any re-read."""
        self._evaluate_watchers(subpage_id, arrival, base_cell=writer)

    def _evaluate_watchers(self, subpage_id: int, at: float, *, base_cell: int) -> None:
        watchers = self._watchers.get(subpage_id)
        if not watchers:
            return
        still_waiting: list[Watcher] = []
        spin = self.config.latency.spin_iteration_cycles
        hop = self.config.ring.hop_cycles
        n_woken = 0
        for w in watchers:
            value = self.peek(w.addr)
            if w.predicate(value):
                skew = ((w.cell_id - base_cell) % self.config.cells_per_ring) * hop * 0.25
                if not self.config.enable_snarfing:
                    # without read combining every spinner's re-read is
                    # its own serialized ring transaction
                    skew += n_woken * self.config.ring.remote_latency_cycles
                self.n_wakeups += 1
                n_woken += 1
                self.cells[w.cell_id].perfmon.spin_wakeups += 1
                w.cont(at + skew + spin)
            else:
                still_waiting.append(w)
        if still_waiting:
            self._watchers[subpage_id] = still_waiting
        else:
            self._watchers.pop(subpage_id, None)

    # ------------------------------------------------------------------
    # WaitUntil
    # ------------------------------------------------------------------

    def wait_until(
        self,
        cell_id: int,
        addr: int,
        predicate: Callable[[Any], bool],
        now: float,
        cont: Cont,
    ) -> None:
        """Park until ``predicate(value_at(addr))`` holds (see
        :class:`repro.sim.process.WaitUntil` for the semantics)."""
        subpage_id = subpage_of(addr)
        spin = self.config.latency.spin_iteration_cycles
        cell = self.cells[cell_id]
        value = self.peek(addr)
        if cell.local_cache.is_valid(subpage_id):
            if predicate(value):
                cont(now + spin)
                return
            self._register_watcher(cell_id, addr, predicate, cont, now)
            return
        # No valid local copy: the first spin iteration is a read miss.
        def after_fill(done: float) -> None:
            current = self.peek(addr)
            if predicate(current):
                cont(done + spin)
            else:
                self._register_watcher(cell_id, addr, predicate, cont, done)

        self.acquire_shared(cell_id, subpage_id, now, after_fill)

    def _register_watcher(
        self,
        cell_id: int,
        addr: int,
        predicate: Callable[[Any], bool],
        cont: Cont,
        now: float,
    ) -> None:
        watcher = Watcher(cell_id, addr, predicate, cont, now)
        self._watchers.setdefault(subpage_of(addr), []).append(watcher)

    # ------------------------------------------------------------------
    # Prefetch and poststore
    # ------------------------------------------------------------------

    def prefetch(self, cell_id: int, addr: int, now: float) -> None:
        """Start an asynchronous shared fill of ``addr``'s subpage."""
        subpage_id = subpage_of(addr)
        cell = self.cells[cell_id]
        cell.perfmon.prefetches += 1
        if cell.local_cache.is_valid(subpage_id):
            return
        entry = self.directory.entry(subpage_id)
        if entry.atomic and entry.owner != cell_id:
            return  # hardware drops prefetches that lose the race
        if not entry.has_valid_copy:
            if not entry.created:
                return  # nothing to fetch yet
            self._fill(cell_id, subpage_id, SubpageState.SHARED, entry=entry)
            return
        joined = self.combiner.try_join(subpage_id, now)
        if joined is not None:
            self.fills.issue(cell_id, subpage_id, joined)
            self.engine.schedule_at(joined, self._land_prefetch, cell_id, subpage_id)
            return
        responder = self._responder_or_none(subpage_id, cell_id)
        start = self._gate(subpage_id, now)
        timing = self.hierarchy.transact(start, cell_id, responder, subpage_id)
        cell.perfmon.ring_transactions += 1
        cell.perfmon.ring_cycles += timing.total_cycles
        if self.fault_accounting:
            self._charge_faults(cell.perfmon, timing)
        self.combiner.begin(subpage_id, start, timing.completed_at)
        self.fills.issue(cell_id, subpage_id, timing.completed_at)
        self.engine.schedule_at(
            timing.completed_at, self._land_prefetch, cell_id, subpage_id
        )

    def _land_prefetch(self, cell_id: int, subpage_id: int) -> None:
        self.fills.complete(cell_id, subpage_id)
        entry = self.directory.entry(subpage_id)
        if entry.atomic and entry.owner != cell_id:
            return  # raced with a get_subpage; fill is dropped
        cell = self.cells[cell_id]
        if cell.local_cache.is_valid(subpage_id):
            return
        self._finish_shared_fill(cell_id, subpage_id, demote_owner=True)

    def poststore(self, cell_id: int, addr: int, now: float, cont: Cont) -> None:
        """Broadcast the subpage; issuer continues after the local-cache
        writeback, receivers get SHARED copies, the issuer is demoted to
        SHARED too (the semantics that hurt SP)."""
        subpage_id = subpage_of(addr)
        cell = self.cells[cell_id]
        cell.perfmon.poststores += 1
        entry = self.directory.entry(subpage_id)
        issue_done = now + self.config.latency.poststore_issue_cycles

        def broadcast(start_at: float) -> None:
            start = self._gate(subpage_id, start_at)
            timing = self.hierarchy.transact(start, cell_id, None, subpage_id)
            self._advance_gate(subpage_id, timing.completed_at)
            cell.perfmon.ring_transactions += 1
            cell.perfmon.ring_cycles += timing.total_cycles
            if self.fault_accounting:
                self._charge_faults(cell.perfmon, timing)
            self.engine.schedule_at(
                timing.completed_at, self._complete_poststore, cell_id, subpage_id
            )

        if entry.owner == cell_id and not entry.atomic:
            broadcast(issue_done)
            cont(issue_done)
        elif entry.owner == cell_id and entry.atomic:
            # poststore of an atomic subpage: broadcast after release
            # semantics are undefined on the real machine; we broadcast
            # immediately but keep the atomic lock.
            broadcast(issue_done)
            cont(issue_done)
        else:
            # Not the owner: obtain ownership first (a write must have
            # preceded a sensible poststore anyway).
            def owned(done: float) -> None:
                broadcast(done)
                cont(done + self.config.latency.poststore_issue_cycles)

            self.acquire_exclusive(cell_id, subpage_id, now, owned)

    def _complete_poststore(self, cell_id: int, subpage_id: int) -> None:
        now = self.engine.now
        entry = self.directory.entry(subpage_id)
        if entry.owner is not None and entry.owner != cell_id:
            # A newer write took the subpage exclusive while this
            # broadcast circulated: the packet's data is stale.  The
            # newer write's own notification will wake any spinners.
            return
        if entry.owner == cell_id and not entry.atomic:
            self.cells[cell_id].local_cache.set_state(subpage_id, SubpageState.SHARED)
            self.directory.demote_owner(subpage_id)
        self._snarf_placeholders(subpage_id, now)
        self.notify_poststore(subpage_id, cell_id, now)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def blocked_description(self) -> list[str]:
        """Human-readable list of everything still parked (deadlock
        reporting)."""
        out: list[str] = []
        for sp, ws in self._watchers.items():
            for w in ws:
                out.append(
                    f"cell {w.cell_id} spinning on word 0x{w.addr:x} "
                    f"(subpage {sp}) since t={w.registered_at:.0f}"
                )
        for sp, waiters in self._atomic_waiters.items():
            for w in waiters:
                out.append(
                    f"cell {w.cell_id} blocked on atomic subpage {sp} "
                    f"since t={w.enqueued_at:.0f}"
                )
        return out
