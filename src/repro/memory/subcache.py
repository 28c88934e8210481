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

import numpy as np

from repro.machine.config import CacheConfig, SUBBLOCK_BYTES, SUBPAGE_BYTES
from repro.memory.cache_sets import AccessResult, SetAssociativeCache

__all__ = ["SubCache"]

_SUBBLOCKS_PER_SUBPAGE = SUBPAGE_BYTES // SUBBLOCK_BYTES


class SubCache:
    """Per-cell first-level cache, indexed by byte address."""

    def __init__(self, config: CacheConfig, rng: np.random.Generator):
        self._cache = SetAssociativeCache(config, rng)

    def access(self, addr: int) -> AccessResult:
        """Touch the sub-block containing byte ``addr``.

        The outcome is the set-associative cache's own: ``line_hit`` is a
        sub-block hit, ``frame_allocated`` a fresh 2 KB block, and
        ``evicted_lines`` the sub-blocks of a displaced block.
        """
        return self._cache.access(addr // SUBBLOCK_BYTES)

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
