"""Global bookkeeping of subpage copies.

The real KSR has no directory — requests circulate and whichever cell
holds a valid copy responds.  A simulator still needs to *know* who
holds what; this module is that knowledge, with the understanding that
it models the aggregate effect of ring snooping, not a physical
directory structure.

Invariants enforced here (violations raise
:class:`~repro.errors.ProtocolError` — they indicate simulator bugs):

* at most one cell holds EXCLUSIVE or ATOMIC,
* an exclusive owner is the *only* holder of a valid copy,
* the atomic holder is also the exclusive owner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import KeysView, Optional

from repro.errors import ProtocolError
from repro.memory.cache_sets import bit_ids
from repro.memory.local_cache import SubpageState

__all__ = ["DirectoryEntry", "Directory"]

#: The view of an empty cell mask (shared: most masks are empty).
_NO_CELLS: frozenset[int] = frozenset()


def _cells_of(mask: int) -> frozenset[int]:
    """Frozenset view of a cell mask (the shared empty view for 0)."""
    return frozenset(bit_ids(mask)) if mask else _NO_CELLS


def _describe(mask: int) -> str:
    """A cell mask rendered like the set of its ids (for messages)."""
    return "{" + ", ".join(map(str, bit_ids(mask))) + "}" if mask else "set()"


@dataclass(slots=True)
class DirectoryEntry:
    """Who holds copies of one subpage, and in what role.

    Cell sets are ``int`` bitmasks (bit ``c`` stands for cell ``c``),
    the per-cell presence bits a hardware directory keeps.
    """

    #: Mask of the cells holding a *valid* (shared or exclusive/atomic) copy.
    sharer_mask: int = 0
    #: Mask of the cells holding an INVALID place-holder (snarf candidates).
    placeholder_mask: int = 0
    #: Cell holding the copy in EXCLUSIVE or ATOMIC state, if any.
    owner: Optional[int] = None
    #: Whether the owner's copy is ATOMIC (get_subpage held).
    atomic: bool = False
    #: Whether any cell has ever touched this subpage.
    created: bool = False

    @property
    def sharers(self) -> frozenset[int]:
        """Cells holding a valid copy (read-only view of the mask)."""
        return _cells_of(self.sharer_mask)

    @property
    def placeholders(self) -> frozenset[int]:
        """Cells holding an INVALID place-holder (read-only view)."""
        return _cells_of(self.placeholder_mask)

    def check(self) -> None:
        """Validate the entry's invariants."""
        sharer_mask = self.sharer_mask
        if self.owner is not None:
            if sharer_mask != 1 << self.owner:
                raise ProtocolError(
                    f"owner {self.owner} must be sole sharer, have {_describe(sharer_mask)}"
                )
        elif self.atomic:
            raise ProtocolError("atomic flag without an owner")
        both = sharer_mask & self.placeholder_mask
        if both:
            raise ProtocolError(f"cells {_describe(both)} both valid and place-holder")

    @property
    def has_valid_copy(self) -> bool:
        """Whether any cell can supply the data."""
        return self.sharer_mask != 0

    def __reduce__(self) -> tuple[type, tuple[int, int, Optional[int], bool, bool]]:
        # A directory holds thousands of entries; pickling each as its
        # field tuple is about 4x faster than the default slot state.
        return DirectoryEntry, (
            self.sharer_mask, self.placeholder_mask, self.owner, self.atomic, self.created
        )


class Directory:
    """Map subpage id → :class:`DirectoryEntry` (created on demand)."""

    def __init__(self) -> None:
        self._entries: dict[int, DirectoryEntry] = {}

    def entry(self, subpage_id: int) -> DirectoryEntry:
        """The entry for ``subpage_id`` (creating an empty one)."""
        entry = self._entries.get(subpage_id)
        if entry is None:
            entry = DirectoryEntry()
            self._entries[subpage_id] = entry
        return entry

    def known(self, subpage_id: int) -> bool:
        """Whether the subpage has an entry at all."""
        return subpage_id in self._entries

    def subpage_ids(self) -> KeysView[int]:
        """Every subpage that has an entry (a live view)."""
        return self._entries.keys()

    # ------------------------------------------------------------------
    # Transitions (each keeps the entry consistent and re-checks)
    # ------------------------------------------------------------------

    def record_fill_shared(
        self, subpage_id: int, cell_id: int, *, entry: Optional[DirectoryEntry] = None
    ) -> None:
        """Cell obtained a SHARED copy (read miss fill or snarf).
        ``entry``, when given, is the subpage's entry (saves a lookup)."""
        if entry is None:
            entry = self.entry(subpage_id)
        if entry.owner is not None and entry.owner != cell_id:
            # the previous exclusive owner is downgraded by the protocol
            raise ProtocolError(
                f"shared fill of subpage {subpage_id} while cell {entry.owner} owns it"
            )
        entry.owner = None
        entry.atomic = False
        bit = 1 << cell_id
        entry.sharer_mask |= bit
        entry.placeholder_mask &= ~bit
        entry.created = True
        entry.check()

    def record_fill_exclusive(
        self,
        subpage_id: int,
        cell_id: int,
        atomic: bool = False,
        entry: Optional[DirectoryEntry] = None,
    ) -> None:
        """Cell obtained the EXCLUSIVE (or ATOMIC) copy; all other valid
        copies must already have been demoted to place-holders.
        ``entry``, when given, is the subpage's entry (saves a lookup)."""
        if entry is None:
            entry = self.entry(subpage_id)
        bit = 1 << cell_id
        sharer_mask = entry.sharer_mask
        if sharer_mask and sharer_mask != bit:
            raise ProtocolError(
                f"exclusive fill of subpage {subpage_id} with live sharers "
                f"{_describe(sharer_mask & ~bit)}"
            )
        entry.owner = cell_id
        entry.atomic = atomic
        entry.sharer_mask = bit
        entry.placeholder_mask &= ~bit
        entry.created = True
        entry.check()

    def demote_owner(self, subpage_id: int) -> None:
        """EXCLUSIVE/ATOMIC owner drops to SHARED (a remote read hit it)."""
        entry = self.entry(subpage_id)
        if entry.owner is None:
            raise ProtocolError(f"demote on unowned subpage {subpage_id}")
        entry.owner = None
        entry.atomic = False
        entry.check()

    def invalidate_others(self, subpage_id: int, keep_cell: int) -> frozenset[int]:
        """All valid copies except ``keep_cell``'s become place-holders.

        Returns the cells that lost a valid copy (the protocol must
        purge their sub-caches and bump their perf counters).
        """
        entry = self.entry(subpage_id)
        losers = entry.sharer_mask & ~(1 << keep_cell)
        entry.sharer_mask ^= losers
        entry.placeholder_mask |= losers
        if entry.owner is not None and losers >> entry.owner & 1:
            entry.owner = None
            entry.atomic = False
        entry.check()
        return _cells_of(losers)

    def set_atomic(self, subpage_id: int, cell_id: int, value: bool) -> None:
        """Flip the atomic flag of the owner's copy."""
        entry = self.entry(subpage_id)
        if entry.owner != cell_id:
            raise ProtocolError(
                f"cell {cell_id} flipping atomic on subpage {subpage_id} "
                f"owned by {entry.owner}"
            )
        entry.atomic = value
        entry.check()

    def drop_copy(self, subpage_id: int, cell_id: int) -> None:
        """A cache eviction removed the cell's copy (any state)."""
        entry = self.entry(subpage_id)
        keep = ~(1 << cell_id)
        entry.sharer_mask &= keep
        entry.placeholder_mask &= keep
        if entry.owner == cell_id:
            entry.owner = None
            entry.atomic = False
        entry.check()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def responder_for(
        self, subpage_id: int, requester: int, same_ring: range
    ) -> Optional[int]:
        """Pick the cell that will answer a miss by ``requester``.

        Prefers a valid copy on the requester's own ring (the request
        is satisfied before reaching the ARD); falls back to any valid
        copy; ``None`` when the data is uncached (cold access).
        ``same_ring`` is the unit-step range of the ring's cell ids.
        """
        entry = self.entry(subpage_id)
        candidates = entry.sharer_mask & ~(1 << requester)
        if not candidates:
            return None
        ring_mask = (1 << same_ring.stop) - (1 << same_ring.start)
        pool = candidates & ring_mask or candidates
        return (pool & -pool).bit_length() - 1  # lowest id: deterministic

    def summary(self) -> dict[str, int]:
        """Aggregate sharing statistics over every tracked subpage.

        Used by the observability capture (:mod:`repro.obs`) to report
        the machine's end-of-run sharing profile: how many subpages are
        tracked, how many are held shared / exclusively owned / atomic,
        and how many INVALID place-holders (snarf candidates) exist.
        """
        owned = atomic = shared = placeholders = 0
        for entry in self._entries.values():
            if entry.owner is not None:
                owned += 1
                if entry.atomic:
                    atomic += 1
            elif entry.sharer_mask & (entry.sharer_mask - 1):
                shared += 1
            placeholders += entry.placeholder_mask.bit_count()
        return {
            "subpages": len(self._entries),
            "owned_exclusive": owned,
            "held_atomic": atomic,
            "shared_multi": shared,
            "placeholders": placeholders,
        }

    def state_in(self, subpage_id: int, cell_id: int) -> Optional[SubpageState]:
        """Directory's view of the cell's copy (for cross-checking the
        local caches in tests)."""
        entry = self.entry(subpage_id)
        if cell_id == entry.owner:
            return SubpageState.ATOMIC if entry.atomic else SubpageState.EXCLUSIVE
        bit = 1 << cell_id
        if entry.sharer_mask & bit:
            return SubpageState.SHARED
        if entry.placeholder_mask & bit:
            return SubpageState.INVALID
        return None
