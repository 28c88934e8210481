"""The first-level cache (sub-cache).

256 KB of data cache per cell, 2-way set associative, random
replacement; allocation in 2 KB blocks, fills in 64 B sub-blocks from
the local cache.  The instruction half of the sub-cache is not modelled
(the paper's experiments never miss on instructions).

The sub-cache holds *copies* of local-cache data and has no coherence
state of its own: when the coherence protocol invalidates a subpage in
the local cache, the corresponding sub-blocks must be purged here too
(:meth:`SubCache.drop_subpage`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.config import CacheConfig, SUBBLOCK_BYTES, SUBPAGE_BYTES
from repro.memory.cache_sets import FRAME_ALLOC, LINE_FILL, LINE_HIT, SetAssociativeCache

__all__ = ["SubCacheAccess", "SubCache"]

_SUBBLOCKS_PER_SUBPAGE = SUBPAGE_BYTES // SUBBLOCK_BYTES


@dataclass(frozen=True, slots=True)
class SubCacheAccess:
    """Outcome of a sub-cache word access."""

    hit: bool
    block_allocated: bool
    evicted_subblocks: tuple[int, ...] = ()


# Shared outcomes of the accesses that evict nothing (only an eviction
# allocates a result).
_HIT = SubCacheAccess(hit=True, block_allocated=False)
_FILL = SubCacheAccess(hit=False, block_allocated=False)
_ALLOC = SubCacheAccess(hit=False, block_allocated=True)


class SubCache:
    """Per-cell first-level cache, indexed by byte address."""

    def __init__(self, config: CacheConfig, rng: np.random.Generator):
        self._cache = SetAssociativeCache(config, rng)

    def access(self, addr: int) -> SubCacheAccess:
        """Touch the sub-block containing byte ``addr``."""
        result = self._cache.access(addr // SUBBLOCK_BYTES)
        if result is LINE_HIT:
            return _HIT
        if result is LINE_FILL:
            return _FILL
        if result is FRAME_ALLOC:
            return _ALLOC
        return SubCacheAccess(
            hit=False, block_allocated=True, evicted_subblocks=result.evicted_lines
        )

    def contains(self, addr: int) -> bool:
        """Whether the sub-block of ``addr`` is present."""
        return self._cache.contains_line(addr // SUBBLOCK_BYTES)

    def drop_subpage(self, subpage_id: int) -> None:
        """Purge both sub-blocks of an invalidated subpage."""
        first = subpage_id * _SUBBLOCKS_PER_SUBPAGE
        for sb in range(first, first + _SUBBLOCKS_PER_SUBPAGE):
            self._cache.drop_line(sb)

    @property
    def n_accesses(self) -> int:
        """Lifetime access count."""
        return self._cache.n_accesses

    @property
    def n_misses(self) -> int:
        """Lifetime sub-block miss count."""
        return self._cache.n_accesses - self._cache.n_line_hits

    @property
    def hit_rate(self) -> float:
        """Lifetime sub-block hit rate."""
        return self._cache.hit_rate
