"""Software FCFS read-write ticket lock with reader combining.

"We have implemented a simple read-write lock using the KSR-1 exclusive
lock primitive.  Our algorithm is a modified version of Anderson's
ticket lock.  Lock requests are granted tickets atomically using the
get_sub_page primitive.  Consecutive read lock requests are combined by
allowing them to get the same ticket.  Concurrent readers can thus
share the lock and writers are stalled until all readers have released
the lock.  Fairness is assured among readers and writers by maintaining
a strict FCFS queue."

Layout (every box on its own subpage — no false sharing):

* *meta* subpage: ``next_ticket``, ``tail_kind``, ``tail_ticket`` —
  mutated only under ``get_subpage`` of the meta word.
* ``now_serving``: its own subpage; spun on by waiters, advanced by the
  releasing holder with a plain write followed by a poststore so every
  waiting place-holder snarfs the new value.
* a ring of per-ticket reader counters, each on its own subpage.

FCFS holds because tickets are handed out in get_subpage order and
``now_serving`` only ever advances to the next ticket.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.machine.api import SharedMemory
from repro.sim.process import (
    GetSubpage,
    Op,
    Poststore,
    Read,
    ReleaseSubpage,
    WaitUntil,
    Write,
)

__all__ = ["TicketReadWriteLock"]

_KIND_NONE = 0
_KIND_READ = 1
_KIND_WRITE = 2


class TicketReadWriteLock:
    """FCFS read-write lock; see module docstring for the algorithm.

    The reader-counter ring bounds how many *distinct tickets* may be
    simultaneously unreleased: two unreleased tickets a ring apart
    would share one counter and ``now_serving`` would stop advancing.
    Each processor holds at most one ticket, so the ring has one entry
    per cell of the machine, and at least 256 (the layout of every
    machine up to that size).
    """

    def __init__(self, mem: SharedMemory, *, use_poststore: bool = True):
        self.meta = mem.alloc_words(3)  # next_ticket, tail_kind, tail_ticket
        self.now_serving = mem.alloc_word()
        self.ring_size = max(256, mem.machine.config.n_cells)
        self.readers = mem.array("rwlock-readers", self.ring_size)
        self.use_poststore = use_poststore
        mem.poke(self._next_ticket, 1)  # ticket 0 == "already served"
        mem.poke(self.now_serving, 1)
        self._held_ticket: dict[int, int] = {}  # per-pid bookkeeping

    # Meta-word addresses -------------------------------------------------

    @property
    def _next_ticket(self) -> int:
        return self.meta

    @property
    def _tail_kind(self) -> int:
        return self.meta + 8

    @property
    def _tail_ticket(self) -> int:
        return self.meta + 16

    def _counter(self, ticket: int) -> int:
        return self.readers.addr(ticket % self.ring_size)

    # Read side ------------------------------------------------------------

    def acquire_read(self, pid: int) -> Generator[Op, Any, None]:
        """Take (or join) a read ticket, then wait for service."""
        yield GetSubpage(self.meta)
        tail_kind = yield Read(self._tail_kind)
        tail_ticket = yield Read(self._tail_ticket)
        serving = yield Read(self.now_serving)
        if tail_kind == _KIND_READ and tail_ticket >= serving:
            # combine with the pending/active read group
            ticket = tail_ticket
            count = yield Read(self._counter(ticket))
            yield Write(self._counter(ticket), count + 1)
        else:
            ticket = yield Read(self._next_ticket)
            yield Write(self._next_ticket, ticket + 1)
            yield Write(self._tail_kind, _KIND_READ)
            yield Write(self._tail_ticket, ticket)
            yield Write(self._counter(ticket), 1)
        yield ReleaseSubpage(self.meta)
        self._held_ticket[pid] = ticket
        yield WaitUntil(self.now_serving, lambda v, t=ticket: v >= t)

    def release_read(self, pid: int) -> Generator[Op, Any, None]:
        """Last releasing reader of the group advances ``now_serving``."""
        ticket = self._held_ticket.pop(pid)
        yield GetSubpage(self.meta)
        count = yield Read(self._counter(ticket))
        yield Write(self._counter(ticket), count - 1)
        if count - 1 == 0:
            yield from self._advance(ticket)
        yield ReleaseSubpage(self.meta)

    # Write side -----------------------------------------------------------

    def acquire_write(self, pid: int) -> Generator[Op, Any, None]:
        """Take a fresh (exclusive) ticket, then wait for service."""
        yield GetSubpage(self.meta)
        ticket = yield Read(self._next_ticket)
        yield Write(self._next_ticket, ticket + 1)
        yield Write(self._tail_kind, _KIND_WRITE)
        yield Write(self._tail_ticket, ticket)
        yield ReleaseSubpage(self.meta)
        self._held_ticket[pid] = ticket
        yield WaitUntil(self.now_serving, lambda v, t=ticket: v >= t)

    def release_write(self, pid: int) -> Generator[Op, Any, None]:
        """Pass the lock to the next ticket.

        No meta lock needed: ``now_serving`` has a single writer (the
        current holder) — Anderson's ticket release is just the
        holder's own increment, which keeps the serialized hand-off
        path to one write plus the poststore push.
        """
        ticket = self._held_ticket.pop(pid)
        yield from self._advance(ticket)

    # ------------------------------------------------------------------

    def _advance(self, ticket: int) -> Generator[Op, Any, None]:
        """now_serving := ticket + 1, pushed to all spinners."""
        yield Write(self.now_serving, ticket + 1)
        if self.use_poststore:
            yield Poststore(self.now_serving)
