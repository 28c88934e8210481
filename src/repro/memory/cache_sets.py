"""Generic set-associative cache with the KSR allocation policy.

The KSR caches are unusual in that *allocation* and *transfer* happen
at different granularities: the sub-cache reserves a whole 2 KB block
frame on first touch but fills it one 64 B sub-block at a time on
demand; the local cache reserves a 16 KB page frame and fills 128 B
subpages on demand.  Replacement is random (the paper blames this
policy for sub-cache thrashing in SP).

This module models exactly that: frames are tagged by allocation unit,
each frame is a bitmask of its present lines (bit ``i`` is the frame's
``i``-th line; ``lines_per_alloc`` is at most 128), and an access report says
whether the line hit, whether the frame had to be allocated, and what
was evicted.  The three outcomes without an eviction are shared frozen
constants, so the common accesses allocate nothing.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import Optional

import numpy as np

from repro.errors import MemoryModelError
from repro.machine.config import CacheConfig

__all__ = [
    "AccessResult",
    "SetAssociativeCache",
    "LINE_HIT",
    "LINE_FILL",
    "FRAME_ALLOC",
    "bit_ids",
]


def bit_ids(mask: int, base: int = 0) -> tuple[int, ...]:
    """``base + i`` for every set bit ``i`` of ``mask``, ascending.

    Loops over the set bits only, never over every bit position.
    """
    ids = []
    while mask:
        low = mask & -mask
        ids.append(base + low.bit_length() - 1)
        mask ^= low
    return tuple(ids)


@dataclass(frozen=True, slots=True)
class AccessResult:
    """Outcome of one line access.

    ``line_hit``
        The line was present (no fill needed).
    ``frame_allocated``
        A new frame had to be reserved for the line's allocation unit
        (the expensive case the paper measures: +50 % / +60 % access
        time for block/page-allocating strides).
    ``evicted_alloc_id``
        Allocation unit that was displaced to make room, or ``None``.
    ``evicted_mask``
        Bitmask of the lines present in the displaced frame (bit ``i``
        is its ``i``-th line); :attr:`evicted_lines` lists them.
    ``lines_per_alloc``
        Lines per allocation unit of the cache that evicted, to number
        the lines of ``evicted_mask``.
    """

    line_hit: bool
    frame_allocated: bool
    evicted_alloc_id: Optional[int] = None
    evicted_mask: int = 0
    lines_per_alloc: int = 0

    @property
    def line_missed(self) -> bool:
        """Convenience inverse of ``line_hit``."""
        return not self.line_hit

    @property
    def evicted_lines(self) -> tuple[int, ...]:
        """Line ids that were present in the displaced frame, sorted (the
        coherence layer must drop their state).

        Listed when asked for, not on every eviction: most callers never
        look at them.
        """
        if self.evicted_alloc_id is None:
            return ()
        return bit_ids(self.evicted_mask, self.evicted_alloc_id * self.lines_per_alloc)


def _refuse_assignment(self: AccessResult, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


# The frozen dataclass's own __setattr__ raises a bare TypeError on a
# slotted class for a name that is not a field, such as evicted_lines.
AccessResult.__setattr__ = _refuse_assignment  # type: ignore[method-assign,assignment]


#: The line was present.
LINE_HIT = AccessResult(line_hit=True, frame_allocated=False)
#: The frame was present, the line was filled into it.
LINE_FILL = AccessResult(line_hit=False, frame_allocated=False)
#: A frame was allocated into a free way (nothing evicted).
FRAME_ALLOC = AccessResult(line_hit=False, frame_allocated=True)


class SetAssociativeCache:
    """Set-associative cache of allocation frames.

    Parameters
    ----------
    config:
        Geometry (:class:`repro.machine.config.CacheConfig`).
    rng:
        Source of randomness for victim selection.  Determinism of a
        simulation run follows from seeding (see
        :class:`repro.util.rng.SeedStream`).
    policy:
        ``"random"`` — the KSR's actual policy, the default — or
        ``"lru"``, provided for ablation studies (the paper blames
        random replacement for SP's sub-cache thrashing; the
        replacement-policy benchmark quantifies that diagnosis).

    Notes
    -----
    Line ids must belong to the allocation unit they map to:
    ``alloc_id = line_id // lines_per_alloc``; sets are indexed by
    ``alloc_id % n_sets`` — matching a physically indexed cache with
    allocation-unit-sized frames.
    """

    def __init__(
        self,
        config: CacheConfig,
        rng: np.random.Generator,
        *,
        policy: str = "random",
    ):
        if policy not in ("random", "lru"):
            raise MemoryModelError(f"unknown replacement policy {policy!r}")
        self.config = config
        self.rng = rng
        self.policy = policy
        self.lines_per_alloc = config.lines_per_alloc
        self.n_sets = config.n_sets
        self.ways = config.ways
        self._lru = policy == "lru"
        # sets[i] maps alloc_id -> the bitmask of the frame's present
        # lines; kept small (<= ways entries).  Python dicts preserve
        # insertion order, which doubles as the LRU order: on a frame
        # touch we re-insert the key at the end, so the first key is
        # always the least recently used.  Storing a new mask under an
        # existing key keeps its place, so a line fill moves nothing.
        self._sets: list[dict[int, int]] = [dict() for _ in range(self.n_sets)]
        self.n_accesses = 0
        self.n_line_hits = 0
        self.n_frame_allocs = 0
        self.n_evictions = 0

    # ------------------------------------------------------------------

    def access(self, line_id: int) -> AccessResult:
        """Touch ``line_id``: fill it (allocating/evicting as needed).

        Returns an :class:`AccessResult` — one of the shared constants
        unless a frame was evicted; the caller charges latency and
        informs the coherence layer about evicted lines.
        """
        if line_id < 0:
            raise MemoryModelError(f"negative line id {line_id}")
        self.n_accesses += 1
        lines_per_alloc = self.lines_per_alloc
        alloc_id = line_id // lines_per_alloc
        bit = 1 << (line_id % lines_per_alloc)
        cache_set = self._sets[alloc_id % self.n_sets]
        lines = cache_set.get(alloc_id)
        if lines is not None:
            if self._lru:
                # re-insert at the back: dict order is recency order
                del cache_set[alloc_id]
                cache_set[alloc_id] = lines
            if lines & bit:
                self.n_line_hits += 1
                return LINE_HIT
            cache_set[alloc_id] = lines | bit
            return LINE_FILL
        # Frame miss: allocate, evicting per policy if the set is full.
        self.n_frame_allocs += 1
        if len(cache_set) < self.ways:
            cache_set[alloc_id] = bit
            return FRAME_ALLOC
        if self._lru:
            victim_key = next(iter(cache_set))
        else:
            victim_key = list(cache_set)[int(self.rng.integers(len(cache_set)))]
        victim = cache_set.pop(victim_key)
        self.n_evictions += 1
        cache_set[alloc_id] = bit
        return AccessResult(False, True, victim_key, victim, lines_per_alloc)

    # ------------------------------------------------------------------
    # Queries / maintenance used by the coherence layer
    # ------------------------------------------------------------------

    def contains_line(self, line_id: int) -> bool:
        """Whether ``line_id`` is currently present."""
        alloc_id = line_id // self.lines_per_alloc
        lines = self._sets[alloc_id % self.n_sets].get(alloc_id)
        return lines is not None and lines & (1 << (line_id % self.lines_per_alloc)) != 0

    def contains_frame(self, alloc_id: int) -> bool:
        """Whether the allocation unit has a frame (even if the
        requested line is absent)."""
        return alloc_id in self._sets[alloc_id % self.n_sets]

    def drop_line(self, line_id: int) -> bool:
        """Remove one line (keeps the frame).  Returns whether present."""
        alloc_id = line_id // self.lines_per_alloc
        bit = 1 << (line_id % self.lines_per_alloc)
        cache_set = self._sets[alloc_id % self.n_sets]
        lines = cache_set.get(alloc_id)
        if lines is None or not lines & bit:
            return False
        cache_set[alloc_id] = lines ^ bit
        return True

    def drop_frame(self, alloc_id: int) -> tuple[int, ...]:
        """Remove a whole frame; returns the lines that were present."""
        lines = self._sets[alloc_id % self.n_sets].pop(alloc_id, None)
        if lines is None:
            return ()
        return bit_ids(lines, alloc_id * self.lines_per_alloc)

    @property
    def n_frames_used(self) -> int:
        """Currently allocated frames across all sets."""
        return sum(len(s) for s in self._sets)

    @property
    def hit_rate(self) -> float:
        """Line hit rate over the cache's lifetime."""
        if self.n_accesses == 0:
            return 0.0
        return self.n_line_hits / self.n_accesses

    def reset_counters(self) -> None:
        """Zero the statistics counters (contents untouched)."""
        self.n_accesses = 0
        self.n_line_hits = 0
        self.n_frame_allocs = 0
        self.n_evictions = 0
