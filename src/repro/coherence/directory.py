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

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import ProtocolError
from repro.memory.local_cache import SubpageState

__all__ = ["DirectoryEntry", "Directory"]


@dataclass(slots=True)
class DirectoryEntry:
    """Who holds copies of one subpage, and in what role."""

    #: Cells holding a *valid* (shared or exclusive/atomic) copy.
    sharers: set[int] = field(default_factory=set)
    #: Cells holding an INVALID place-holder (candidates for snarfing).
    placeholders: set[int] = field(default_factory=set)
    #: Cell holding the copy in EXCLUSIVE or ATOMIC state, if any.
    owner: Optional[int] = None
    #: Whether the owner's copy is ATOMIC (get_subpage held).
    atomic: bool = False
    #: Whether any cell has ever touched this subpage.
    created: bool = False

    def check(self) -> None:
        """Validate the entry's invariants."""
        if self.owner is not None:
            if len(self.sharers) != 1 or self.owner not in self.sharers:
                raise ProtocolError(
                    f"owner {self.owner} must be sole sharer, have {self.sharers}"
                )
        elif self.atomic:
            raise ProtocolError("atomic flag without an owner")
        if self.placeholders and not self.sharers.isdisjoint(self.placeholders):
            raise ProtocolError(
                f"cells {self.sharers & self.placeholders} both valid and place-holder"
            )

    @property
    def has_valid_copy(self) -> bool:
        """Whether any cell can supply the data."""
        return bool(self.sharers)


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
        entry.sharers.add(cell_id)
        entry.placeholders.discard(cell_id)
        entry.created = True
        entry.check()

    def record_fill_exclusive(
        self,
        subpage_id: int,
        cell_id: int,
        *,
        atomic: bool = False,
        entry: Optional[DirectoryEntry] = None,
    ) -> None:
        """Cell obtained the EXCLUSIVE (or ATOMIC) copy; all other valid
        copies must already have been demoted to place-holders.
        ``entry``, when given, is the subpage's entry (saves a lookup)."""
        if entry is None:
            entry = self.entry(subpage_id)
        sharers = entry.sharers
        if sharers and (len(sharers) > 1 or cell_id not in sharers):
            raise ProtocolError(
                f"exclusive fill of subpage {subpage_id} with live sharers "
                f"{sharers - {cell_id}}"
            )
        entry.owner = cell_id
        entry.atomic = atomic
        entry.sharers = {cell_id}
        entry.placeholders.discard(cell_id)
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

    def invalidate_others(self, subpage_id: int, keep_cell: int) -> set[int]:
        """All valid copies except ``keep_cell``'s become place-holders.

        Returns the cells that lost a valid copy (the protocol must
        purge their sub-caches and bump their perf counters).
        """
        entry = self.entry(subpage_id)
        losers = entry.sharers - {keep_cell}
        entry.sharers -= losers
        entry.placeholders |= losers
        if entry.owner in losers:
            entry.owner = None
            entry.atomic = False
        entry.check()
        return losers

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
        entry.sharers.discard(cell_id)
        entry.placeholders.discard(cell_id)
        if entry.owner == cell_id:
            entry.owner = None
            entry.atomic = False
        entry.check()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def responder_for(
        self, subpage_id: int, requester: int, same_ring: Iterable[int]
    ) -> Optional[int]:
        """Pick the cell that will answer a miss by ``requester``.

        Prefers a valid copy on the requester's own ring (the request
        is satisfied before reaching the ARD); falls back to any valid
        copy; ``None`` when the data is uncached (cold access).
        """
        entry = self.entry(subpage_id)
        candidates = entry.sharers - {requester}
        if not candidates:
            return None
        local = candidates & set(same_ring)
        pool = local if local else candidates
        return min(pool)  # deterministic choice

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
            elif len(entry.sharers) > 1:
                shared += 1
            placeholders += len(entry.placeholders)
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
        if cell_id in entry.sharers:
            return SubpageState.SHARED
        if cell_id in entry.placeholders:
            return SubpageState.INVALID
        return None
