"""The second-level cache (local cache) with per-subpage coherence state.

32 MB per cell, 16-way set associative, random replacement; allocation
in 16 KB pages, fills in 128 B subpages.  Each present subpage carries
one of the KSR coherence states:

``INVALID``
    A *place-holder*: space is allocated and the tag matches, but the
    data is stale (another cell wrote it).  Place-holders are what
    read-snarfing refreshes for free when a response packet passes.
``SHARED``
    A valid read-only copy; other cells may also hold SHARED copies.
``EXCLUSIVE``
    The only valid copy; may be written without ring traffic.
``ATOMIC``
    Like EXCLUSIVE plus the subpage lock is held
    (:func:`~repro.sim.process.GetSubpage`); other cells' get-subpage
    requests are refused until release.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ProtocolError
from repro.machine.config import CacheConfig, SUBPAGE_BYTES
from repro.memory.cache_sets import SetAssociativeCache

__all__ = ["SubpageState", "LocalCacheFill", "LocalCache"]


class SubpageState(enum.Enum):
    """Coherence state of a subpage copy in one local cache."""

    INVALID = "invalid"
    SHARED = "shared"
    EXCLUSIVE = "exclusive"
    ATOMIC = "atomic"

    @property
    def valid(self) -> bool:
        """Whether the copy's data may be read."""
        return self is not SubpageState.INVALID

    @property
    def writable(self) -> bool:
        """Whether the copy may be written without a ring transaction."""
        return self in (SubpageState.EXCLUSIVE, SubpageState.ATOMIC)


_INVALID = SubpageState.INVALID


@dataclass(frozen=True, slots=True)
class LocalCacheFill:
    """Outcome of filling a subpage into the local cache."""

    page_allocated: bool
    evicted_subpages: tuple[int, ...] = ()


# Shared outcomes of the fills that evict nothing.
_FILLED = LocalCacheFill(page_allocated=False)
_PAGE_ALLOCATED = LocalCacheFill(page_allocated=True)


class LocalCache:
    """Per-cell second-level cache: presence plus coherence state."""

    def __init__(self, config: CacheConfig, rng: np.random.Generator):
        self._cache = SetAssociativeCache(config, rng)
        self._states: dict[int, SubpageState] = {}
        self.n_fills = 0
        self.n_snarfs = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def state_of(self, subpage_id: int) -> Optional[SubpageState]:
        """State of the subpage copy, or ``None`` when absent."""
        return self._states.get(subpage_id)

    def contains(self, subpage_id: int) -> bool:
        """Whether the subpage is present (in any state, incl. INVALID)."""
        return subpage_id in self._states

    def is_valid(self, subpage_id: int) -> bool:
        """Whether a readable copy is present."""
        return self._states.get(subpage_id, _INVALID) is not _INVALID

    def valid_subpages(self) -> list[int]:
        """All subpages with a readable copy (diagnostics/tests)."""
        return [sp for sp, st in self._states.items() if st.valid]

    # ------------------------------------------------------------------
    # Fills and state changes (driven by the coherence protocol)
    # ------------------------------------------------------------------

    def fill(self, subpage_id: int, state: SubpageState) -> LocalCacheFill:
        """Install a subpage copy in ``state``.

        Allocates the containing 16 KB page frame if needed; a random
        victim page may be displaced, and its subpages' states are
        dropped and reported so the protocol can account for them.
        """
        if state is SubpageState.INVALID:
            raise ProtocolError("cannot fill a subpage in INVALID state")
        result = self._cache.access(subpage_id)
        evicted = result.evicted_lines
        for sp in evicted:
            self._states.pop(sp, None)
        self._states[subpage_id] = state
        self.n_fills += 1
        if evicted:
            return LocalCacheFill(page_allocated=True, evicted_subpages=evicted)
        return _PAGE_ALLOCATED if result.frame_allocated else _FILLED

    def set_state(self, subpage_id: int, state: SubpageState) -> None:
        """Change the state of a *present* subpage."""
        if subpage_id not in self._states:
            raise ProtocolError(
                f"state change to {state.name} on absent subpage {subpage_id}"
            )
        self._states[subpage_id] = state

    def invalidate(self, subpage_id: int) -> bool:
        """Demote a copy to a place-holder.  Returns whether it was valid."""
        state = self._states.get(subpage_id)
        if state is None:
            return False
        self._states[subpage_id] = SubpageState.INVALID
        return state.valid

    def snarf(self, subpage_id: int) -> bool:
        """Revalidate a place-holder from a passing response packet.

        Returns ``True`` if a place-holder was refreshed.  Valid copies
        are left untouched (snarfing only helps INVALID ones).
        """
        if self._states.get(subpage_id) is SubpageState.INVALID:
            self._states[subpage_id] = SubpageState.SHARED
            self.n_snarfs += 1
            return True
        return False

    def drop(self, subpage_id: int) -> None:
        """Remove a subpage copy entirely (state and data)."""
        self._states.pop(subpage_id, None)
        self._cache.drop_line(subpage_id)

    # ------------------------------------------------------------------

    @property
    def n_subpages_present(self) -> int:
        """Number of subpage copies currently tracked."""
        return len(self._states)

    @staticmethod
    def subpage_bytes() -> int:
        """Size of the coherence unit (for convenience in tests)."""
        return SUBPAGE_BYTES
