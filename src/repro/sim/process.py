"""Coroutine process model and the op vocabulary.

A simulated thread is a Python generator.  Each ``yield`` hands the
executor an :class:`Op`; the executor charges the appropriate latency
(possibly blocking on the ring or a lock) and resumes the generator
with the op's result (the value read, the cycles elapsed, ...).

Example thread body::

    def worker(mem, flag_addr):
        yield Compute(100)                 # 100 cycles of local work
        v = yield Read(counter_addr)       # coherent read
        yield Write(counter_addr, v + 1)   # coherent write
        yield WaitUntil(flag_addr, lambda x: x == 1)   # efficient spin

``WaitUntil`` deserves a note: a real spin loop re-reads a locally
cached flag millions of times.  Simulating each iteration would be
pointless work, so the executor parks the process as a *coherence
watcher* on the flag's subpage and re-evaluates the predicate whenever
a write, poststore or snarf changes the value.  Timing-wise the waiter
still pays the re-fetch it would have paid on its first spin iteration
after the invalidation, so nothing is lost but event count.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional, Union

from repro.errors import SimulationError

__all__ = [
    "Op",
    "Compute",
    "LocalOps",
    "Read",
    "Write",
    "GetSubpage",
    "ReleaseSubpage",
    "Prefetch",
    "Poststore",
    "WaitUntil",
    "Fence",
    "Process",
]


class Op:
    """Base class of everything a simulated thread may yield."""

    __slots__ = ()


@dataclass(frozen=True)
class Compute(Op):
    """Execute ``cycles`` of purely local computation."""

    cycles: float

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise SimulationError(f"Compute cycles must be >= 0, got {self.cycles}")


@dataclass(frozen=True)
class LocalOps(Op):
    """Execute ``count`` "local operations" — the unit the paper uses
    for its synthetic lock workloads ("a delay of 10000 local
    operations").  The executor converts one local operation to
    ``issue_width``-adjusted cycles."""

    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise SimulationError(f"LocalOps count must be >= 0, got {self.count}")


class Read(namedtuple("Read", "addr"), Op):
    """Coherent read of the 64-bit word at ``addr``; result: the value.

    :class:`Read` and :class:`Write` are the ops of the memory hot path,
    built once per simulated access, so they are immutable tuples with
    the fields, ``repr`` and value equality of a frozen dataclass; a
    :class:`Write` costs about a third less to build that way.
    """

    __slots__ = ()


class Write(namedtuple("Write", "addr value"), Op):
    """Coherent write of ``value`` to the word at ``addr``."""

    __slots__ = ()


@dataclass(frozen=True)
class GetSubpage(Op):
    """Acquire the *atomic* state on the subpage containing ``addr``.

    Blocks (with ring-transaction retries, as the hardware does) while
    another cell holds the subpage atomic.  The hardware guarantees
    forward progress but *not* FCFS — contending requesters are granted
    in ring order after the releasing cell.
    """

    addr: int


@dataclass(frozen=True)
class ReleaseSubpage(Op):
    """Release the atomic state acquired by :class:`GetSubpage`."""

    addr: int


@dataclass(frozen=True)
class Prefetch(Op):
    """Bring the subpage containing ``addr`` into the local cache
    without blocking the issuing thread (charged a small issue cost;
    the fill completes in the background)."""

    addr: int


@dataclass(frozen=True)
class Poststore(Op):
    """Broadcast the current value of ``addr``'s subpage on the ring.

    All invalid place-holders for the subpage receive the new value as
    the packet passes.  The issuer stalls only until the line is
    written out to the local cache, then continues computing — this is
    the overlap the paper exploits in CG and the tree barriers, and the
    semantics that *hurt* SP (receivers get the line in shared state
    and must still invalidate it back when they write)."""

    addr: int


@dataclass(frozen=True)
class WaitUntil(Op):
    """Spin on the word at ``addr`` until ``predicate(value)`` is true.

    Result: the satisfying value.  See the module docstring for how the
    executor models this without simulating every spin iteration.
    """

    addr: int
    predicate: Callable[[Any], bool]


@dataclass(frozen=True)
class Fence(Op):
    """Complete all outstanding asynchronous operations (prefetches,
    poststore ring transfers) issued by this thread."""


@dataclass
class Process:
    """A running simulated thread: a generator plus bookkeeping.

    The executor (a :class:`repro.machine.cell.Cell`) drives the
    generator; :class:`Process` only records identity, state and
    timing.  ``waiting_on`` is the blocking op: a :class:`Read` or
    :class:`Write` waiting on a miss, or the text describing any other
    op; :attr:`waiting_description` renders it for deadlock diagnostics.
    """

    name: str
    body: Generator[Op, Any, Any]
    cell_id: int
    started_at: float = 0.0
    finished_at: Optional[float] = None
    waiting_on: Union[Read, Write, str, None] = None
    result: Any = None
    on_exit: Optional[Callable[["Process"], None]] = None
    #: Cumulative cycles this process spent stalled on GetSubpage
    #: retries / WaitUntil spins (perf-monitor style accounting).
    stall_cycles: float = field(default=0.0)

    @property
    def finished(self) -> bool:
        """Whether the generator has run to completion."""
        return self.finished_at is not None

    def finish(self, now: float, result: Any) -> None:
        """Mark completion at time ``now`` with the generator's return value."""
        if self.finished:
            raise SimulationError(f"process {self.name} finished twice")
        self.finished_at = now
        self.result = result
        self.waiting_on = None
        if self.on_exit is not None:
            self.on_exit(self)

    @property
    def waiting_description(self) -> Optional[str]:
        """What the process blocks on, as text (``None`` when not blocked)."""
        waiting = self.waiting_on
        if isinstance(waiting, (Read, Write)):
            return f"{type(waiting).__name__.lower()}(0x{waiting.addr:x})"
        return waiting

    @property
    def elapsed(self) -> float:
        """Cycles from start to finish (only valid when finished)."""
        if self.finished_at is None:
            raise SimulationError(f"process {self.name} has not finished")
        return self.finished_at - self.started_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "finished"
            if self.finished
            else f"waiting on {self.waiting_description}" if self.waiting_on else "runnable"
        )
        return f"Process({self.name!r} on cell {self.cell_id}, {state})"
