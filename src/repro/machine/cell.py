"""A processing node (cell): CEU + caches + ring interface.

The cell interprets the ops yielded by the thread bound to it, charges
the local cost model (sub-cache and local-cache hits, allocation
penalties, instruction issue) and defers everything global to the
coherence protocol.  One thread runs per cell, as the paper's
experiments bind them.

Latency composition for a read (write analogous, plus write extras):

=======================  =============================================
Case                     Charge (CPU cycles)
=======================  =============================================
sub-cache hit            2
local-cache hit          18 (+9 if the access allocated a fresh 2 KB
                         sub-cache block — the measured +50 % case)
remote                   ring transaction (~175 uncontended: one
                         circuit + protocol overhead + slot queueing)
                         (+105 if it allocated a fresh 16 KB page —
                         the measured +60 % case) (+block penalty)
cold first touch         local creation: 18 + allocation penalties
=======================  =============================================
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.machine.config import MachineConfig, SUBPAGE_BYTES
from repro.machine.thread import TimerModel
from repro.memory.local_cache import LocalCache
from repro.memory.perfmon import PerfMonitor
from repro.memory.subcache import SubCache
from repro.sim.engine import Engine
from repro.sim.process import (
    Compute,
    Fence,
    GetSubpage,
    LocalOps,
    Op,
    Poststore,
    Prefetch,
    Process,
    Read,
    ReleaseSubpage,
    WaitUntil,
    Write,
)
from repro.sim.tracing import Trace
from repro.util.rng import SeedStream

__all__ = ["Cell"]


class Cell:
    """One processing node of the simulated machine."""

    # The access waiting on the protocol after a local-cache miss:
    # (process, the Read or Write, start time, block-allocation extra).
    # The cell's one thread blocks on it, so there is at most one, and
    # the continuations read it from here instead of closing over it.
    _miss: tuple[Process, Any, float, float]

    def __init__(
        self,
        cell_id: int,
        config: MachineConfig,
        engine: Engine,
        protocol: "CoherenceProtocol",  # noqa: F821 - import cycle, see machine.ksr
        seeds: SeedStream,
        trace: Optional[Trace] = None,
    ):
        self.cell_id = cell_id
        self.config = config
        self.engine = engine
        self.protocol = protocol
        self.subcache = SubCache(config.subcache, seeds.rng(f"cell/{cell_id}/subcache"))
        self.local_cache = LocalCache(
            config.local_cache, seeds.rng(f"cell/{cell_id}/local-cache")
        )
        self.perfmon = PerfMonitor()
        self.timer = TimerModel(config, cell_id, seeds.rng(f"cell/{cell_id}/timer"))
        self.trace = trace
        #: Set by the protocol when a demand fill allocated a page; the
        #: in-progress access picks it up as a latency penalty.
        self.pending_page_alloc = False
        #: Fault seam (:mod:`repro.faults`): maps a resume time to a
        #: possibly later one while the cell is in a transient stall
        #: window.  ``None`` (the default) costs one branch per resume.
        self.fault_delay: Optional[Callable[[float], float]] = None
        self.current_process: Optional[Process] = None
        #: Read and Write, the ops of the memory hot path, dispatch by
        #: exact type; every other op takes the chain in _dispatch.
        self._access_ops: dict[type, Callable[[Process, Any], None]] = {
            Read: self._do_read,
            Write: self._do_write,
        }

    # ------------------------------------------------------------------
    # Process driving
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        """The cell without its thread: a copied machine starts idle.

        Drops ``current_process`` and ``_miss``, which may still hold a
        finished thread and its exhausted generator.
        """
        state = self.__dict__.copy()
        state.pop("_miss", None)
        state["current_process"] = None
        return state

    def set_trace(self, trace: Optional[Trace]) -> None:
        """Attach (or, with ``None``, detach) the op-record sink.

        The cost model is unaffected: tracing only observes.  Called by
        :meth:`repro.machine.ksr.KsrMachine.set_trace`.
        """
        self.trace = trace

    def start(self, process: Process) -> None:
        """Begin executing a thread on this cell."""
        if self.current_process is not None and not self.current_process.finished:
            raise SimulationError(
                f"cell {self.cell_id} already runs {self.current_process.name}"
            )
        self.current_process = process
        process.started_at = self.engine.now
        self.engine.schedule(0, self._advance, process, None)

    def _advance(self, process: Process, send_value: Any) -> None:
        """Feed the last result in and interpret the next op."""
        try:
            op = process.body.send(send_value)
        except StopIteration as stop:
            process.finish(self.engine.now, stop.value)
            return
        access = self._access_ops.get(type(op))
        if access is not None:
            access(process, op)
            return
        if not isinstance(op, Op):
            raise SimulationError(
                f"thread {process.name} yielded {op!r}; threads must yield Op instances"
            )
        self._dispatch(process, op)

    def _resume(self, process: Process, at: float, value: Any = None) -> None:
        """Schedule the generator to continue at time ``at``.

        The single continuation path for op completion, so a fault
        injector deferring ``at`` here freezes the cell's forward
        progress for the stall window without touching the event queue.
        """
        if self.fault_delay is not None:
            at = self.fault_delay(at)
        if at < self.engine.now:
            raise SimulationError(
                f"resume of {process.name} scheduled in the past "
                f"({at} < {self.engine.now})"
            )
        process.waiting_on = None
        self.engine.schedule_at(at, self._advance, process, value)

    def _trace(self, kind: str, addr: Optional[int], start: float, end: float, detail: str = "") -> None:
        if self.trace is not None and self.current_process is not None:
            self.trace.record(
                start, self.cell_id, self.current_process.name, kind, addr, end - start, detail
            )

    # ------------------------------------------------------------------
    # Op interpretation
    # ------------------------------------------------------------------

    def _dispatch(self, process: Process, op: Op) -> None:
        now = self.engine.now
        if isinstance(op, Compute):
            self._do_compute(process, op.cycles, "compute")
        elif isinstance(op, LocalOps):
            self._do_compute(
                process, op.count * self.config.latency.local_op_cycles, "local-ops"
            )
        elif isinstance(op, GetSubpage):
            process.waiting_on = f"get_subpage(0x{op.addr:x})"
            lat = self.config.latency

            def gsp_done(done: float) -> None:
                end = done + lat.local_cache_hit_cycles
                self._trace("gsp", op.addr, now, end)
                self._resume(process, end)

            self.protocol.get_subpage(self.cell_id, op.addr, now, gsp_done)
        elif isinstance(op, ReleaseSubpage):
            self.protocol.release_subpage(self.cell_id, op.addr, now)
            end = now + self.config.latency.local_cache_hit_cycles
            self._trace("rsp", op.addr, now, end)
            self._resume(process, end)
        elif isinstance(op, Prefetch):
            self.protocol.prefetch(self.cell_id, op.addr, now)
            end = now + self.config.latency.subcache_hit_cycles
            self._trace("prefetch", op.addr, now, end)
            self._resume(process, end)
        elif isinstance(op, Poststore):
            process.waiting_on = f"poststore(0x{op.addr:x})"

            def ps_done(done: float) -> None:
                self._trace("poststore", op.addr, now, done)
                self._resume(process, done)

            self.protocol.poststore(self.cell_id, op.addr, now, ps_done)
        elif isinstance(op, WaitUntil):
            process.waiting_on = f"spin(0x{op.addr:x})"
            wait_started = now

            def woken(done: float) -> None:
                process.stall_cycles += done - wait_started
                self.perfmon.stall_cycles += done - wait_started
                value = self.protocol.peek(op.addr)
                self._trace("spin", op.addr, wait_started, done)
                self._resume(process, done, value)

            self.protocol.wait_until(self.cell_id, op.addr, op.predicate, now, woken)
        elif isinstance(op, Fence):
            pending = self.protocol.fills.outstanding_for(self.cell_id)
            end = max([now] + [t for _, t in pending])
            self._trace("fence", None, now, end)
            self._resume(process, end)
        else:  # pragma: no cover - exhaustive over the op vocabulary
            raise SimulationError(f"unknown op {op!r}")

    # ------------------------------------------------------------------

    def _do_compute(self, process: Process, cycles: float, kind: str) -> None:
        now = self.engine.now
        end, n_irq = self.timer.extend(now, cycles)
        if n_irq:
            self.perfmon.timer_interrupts += n_irq
            self.perfmon.timer_cycles += n_irq * self.timer.cost_cycles
        self.perfmon.compute_cycles += cycles
        self._trace(kind, None, now, end)
        self._resume(process, end)

    def _do_read(self, process: Process, op: Read) -> None:
        now = self.engine.now
        lat = self.config.latency
        addr = op.addr
        sp = addr // SUBPAGE_BYTES
        perfmon = self.perfmon
        valid_locally = self.local_cache.is_valid(sp)
        sc = self.subcache.access(addr)
        block_extra = 0.0
        if sc.frame_allocated:
            perfmon.subcache_block_allocs += 1
            block_extra = lat.block_alloc_cycles
        if valid_locally:
            if sc.line_hit:
                perfmon.subcache_hits += 1
                end = now + lat.subcache_hit_cycles
                detail = "subcache"
            else:
                perfmon.subcache_misses += 1
                perfmon.local_cache_hits += 1
                end = now + lat.local_cache_hit_cycles + block_extra
                detail = "local-cache"
            if self.trace is not None:
                self._trace("read", addr, now, end, detail)
            process.waiting_on = None
            # The read's result is the word's value *at completion
            # time*: _deliver_read samples it inside the completion event.
            self.engine.schedule_at(end, self._deliver_read, process, addr)
            return
        perfmon.subcache_misses += 1
        perfmon.local_cache_misses += 1
        process.waiting_on = op
        self._miss = (process, op, now, block_extra)
        self.protocol.acquire_shared(self.cell_id, sp, now, self._read_filled)

    def _miss_end(self, done: float, start: float, extra: float, extra_cycles: float) -> float:
        """Completion time of the miss that started at ``start`` and whose
        fill finished at ``done`` (never faster than a local-cache hit)."""
        lat = self.config.latency
        if self.pending_page_alloc:  # the fill allocated a 16 KB page
            self.pending_page_alloc = False
            extra += lat.page_alloc_cycles
        return max(done, start + lat.local_cache_hit_cycles) + extra_cycles + extra

    def _read_filled(self, done: float) -> None:
        process, op, start, block_extra = self._miss
        addr = op.addr
        end = self._miss_end(done, start, block_extra, 0.0)
        if self.trace is not None:
            self._trace("read", addr, start, end, "remote" if done > start else "cold")
        process.waiting_on = None
        self.engine.schedule_at(end, self._deliver_read, process, addr)

    def _deliver_read(self, process: Process, addr: int) -> None:
        self._advance(process, self.protocol.peek(addr))

    def _do_write(self, process: Process, op: Write) -> None:
        now = self.engine.now
        lat = self.config.latency
        addr = op.addr
        perfmon = self.perfmon
        state = self.local_cache.state_of(addr // SUBPAGE_BYTES)
        sc = self.subcache.access(addr)
        block_extra = 0.0
        if sc.frame_allocated:
            perfmon.subcache_block_allocs += 1
            block_extra = lat.block_alloc_cycles
        if state is not None and state.writable:
            if sc.line_hit:
                perfmon.subcache_hits += 1
                end = now + lat.subcache_hit_cycles
            else:
                perfmon.subcache_misses += 1
                perfmon.local_cache_hits += 1
                end = now + lat.local_cache_hit_cycles + lat.local_write_extra_cycles + block_extra
            if self.trace is not None:
                self._trace("write", addr, now, end, "local")
            self.engine.schedule_at(end, self._commit_write, process, op)
            return
        perfmon.subcache_misses += 1
        if state is not None and state.valid:
            perfmon.local_cache_hits += 1  # data present, rights missing
        else:
            perfmon.local_cache_misses += 1
        process.waiting_on = op
        self._miss = (process, op, now, block_extra)
        self.protocol.acquire_exclusive(self.cell_id, addr // SUBPAGE_BYTES, now, self._write_owned)

    def _write_owned(self, done: float) -> None:
        process, op, start, block_extra = self._miss
        end = self._miss_end(
            done, start, block_extra, self.config.latency.remote_write_extra_cycles
        )
        if self.trace is not None:
            self._trace("write", op.addr, start, end, "remote" if done > start else "cold")
        process.waiting_on = None
        self.engine.schedule_at(end, self._commit_write, process, op)

    def _commit_write(self, process: Process, op: Write) -> None:
        addr = op.addr
        self.protocol.poke(addr, op.value)
        self.protocol.notify_write(addr // SUBPAGE_BYTES, self.cell_id, self.engine.now)
        self._advance(process, None)
