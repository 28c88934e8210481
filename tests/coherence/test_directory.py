"""Tests for the directory bookkeeping and its invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.directory import Directory
from repro.errors import ProtocolError
from repro.memory.local_cache import SubpageState


class TestFills:
    def test_shared_fill(self):
        d = Directory()
        d.record_fill_shared(1, cell_id=0)
        d.record_fill_shared(1, cell_id=3)
        entry = d.entry(1)
        assert entry.sharers == {0, 3}
        assert entry.owner is None
        assert entry.created

    def test_exclusive_fill(self):
        d = Directory()
        d.record_fill_exclusive(1, cell_id=2)
        entry = d.entry(1)
        assert entry.owner == 2
        assert entry.sharers == {2}

    def test_exclusive_fill_with_sharers_rejected(self):
        d = Directory()
        d.record_fill_shared(1, 0)
        with pytest.raises(ProtocolError):
            d.record_fill_exclusive(1, 3)

    def test_shared_fill_while_owned_rejected(self):
        d = Directory()
        d.record_fill_exclusive(1, 0)
        with pytest.raises(ProtocolError):
            d.record_fill_shared(1, 3)

    def test_owner_rereading_keeps_own_copy(self):
        d = Directory()
        d.record_fill_exclusive(1, 0)
        d.record_fill_shared(1, 0)  # owner's own read demotes itself
        assert d.entry(1).owner is None
        assert d.entry(1).sharers == {0}


class TestInvalidation:
    def test_invalidate_others_moves_to_placeholders(self):
        d = Directory()
        for c in (0, 1, 2):
            d.record_fill_shared(1, c)
        losers = d.invalidate_others(1, keep_cell=1)
        assert losers == {0, 2}
        entry = d.entry(1)
        assert entry.sharers == {1}
        assert entry.placeholders == {0, 2}

    def test_demote_owner(self):
        d = Directory()
        d.record_fill_exclusive(1, 0)
        d.demote_owner(1)
        assert d.entry(1).owner is None
        assert d.entry(1).sharers == {0}

    def test_demote_unowned_rejected(self):
        d = Directory()
        d.record_fill_shared(1, 0)
        with pytest.raises(ProtocolError):
            d.demote_owner(1)


class TestAtomic:
    def test_atomic_flag(self):
        d = Directory()
        d.record_fill_exclusive(1, 0, atomic=True)
        assert d.entry(1).atomic
        d.set_atomic(1, 0, False)
        assert not d.entry(1).atomic

    def test_set_atomic_requires_ownership(self):
        d = Directory()
        d.record_fill_exclusive(1, 0)
        with pytest.raises(ProtocolError):
            d.set_atomic(1, 5, True)


class TestResponderSelection:
    def test_prefers_same_ring(self):
        d = Directory()
        d.record_fill_shared(1, 2)   # same ring
        d.record_fill_shared(1, 40)  # another ring
        assert d.responder_for(1, requester=0, same_ring=range(0, 32)) == 2

    def test_falls_back_to_any(self):
        d = Directory()
        d.record_fill_shared(1, 40)
        assert d.responder_for(1, requester=0, same_ring=range(0, 32)) == 40

    def test_requester_not_own_responder(self):
        d = Directory()
        d.record_fill_shared(1, 0)
        assert d.responder_for(1, requester=0, same_ring=range(0, 32)) is None

    def test_uncached_returns_none(self):
        assert Directory().responder_for(9, 0, range(32)) is None


class TestDropAndState:
    def test_drop_copy_clears_ownership(self):
        d = Directory()
        d.record_fill_exclusive(1, 0, atomic=True)
        d.drop_copy(1, 0)
        entry = d.entry(1)
        assert entry.owner is None and not entry.atomic and not entry.sharers

    def test_state_in_views(self):
        d = Directory()
        d.record_fill_exclusive(1, 0, atomic=True)
        assert d.state_in(1, 0) is SubpageState.ATOMIC
        d.set_atomic(1, 0, False)
        assert d.state_in(1, 0) is SubpageState.EXCLUSIVE
        d.invalidate_others(1, keep_cell=5)  # 0 loses its copy
        assert d.state_in(1, 0) is SubpageState.INVALID
        assert d.state_in(1, 7) is None

    def test_known(self):
        d = Directory()
        assert not d.known(4)
        d.entry(4)
        assert d.known(4)


# ----------------------------------------------------------------------
# Differential test: the bitmask directory against a set-based reference
# ----------------------------------------------------------------------

#: Cell ids up to the KSR-1 maximum of 34 rings of 32 cells.
MAX_CELL = 34 * 32 - 1


def _show(cells):
    """Render a set of cell ids as the directory's messages do (sorted)."""
    return "{" + ", ".join(map(str, sorted(cells))) + "}" if cells else "set()"


class _RefEntry:
    """A directory entry holding its cell sets as Python sets."""

    def __init__(self):
        self.sharers = set()
        self.placeholders = set()
        self.owner = None
        self.atomic = False
        self.created = False

    def check(self):
        if self.owner is not None:
            if len(self.sharers) != 1 or self.owner not in self.sharers:
                raise ProtocolError(
                    f"owner {self.owner} must be sole sharer, have {_show(self.sharers)}"
                )
        elif self.atomic:
            raise ProtocolError("atomic flag without an owner")
        if self.placeholders and not self.sharers.isdisjoint(self.placeholders):
            raise ProtocolError(
                f"cells {_show(self.sharers & self.placeholders)} both valid and place-holder"
            )


class _RefDirectory:
    """Set-based directory with the transition semantics of the bitmask
    one (the representation the directory used before bitmasks)."""

    def __init__(self):
        self._entries = {}

    def entry(self, sp):
        return self._entries.setdefault(sp, _RefEntry())

    def record_fill_shared(self, sp, c):
        entry = self.entry(sp)
        if entry.owner is not None and entry.owner != c:
            raise ProtocolError(
                f"shared fill of subpage {sp} while cell {entry.owner} owns it"
            )
        entry.owner = None
        entry.atomic = False
        entry.sharers.add(c)
        entry.placeholders.discard(c)
        entry.created = True
        entry.check()

    def record_fill_exclusive(self, sp, c, *, atomic=False):
        entry = self.entry(sp)
        if entry.sharers and (len(entry.sharers) > 1 or c not in entry.sharers):
            raise ProtocolError(
                f"exclusive fill of subpage {sp} with live sharers "
                f"{_show(entry.sharers - {c})}"
            )
        entry.owner = c
        entry.atomic = atomic
        entry.sharers = {c}
        entry.placeholders.discard(c)
        entry.created = True
        entry.check()

    def demote_owner(self, sp):
        entry = self.entry(sp)
        if entry.owner is None:
            raise ProtocolError(f"demote on unowned subpage {sp}")
        entry.owner = None
        entry.atomic = False
        entry.check()

    def invalidate_others(self, sp, keep):
        entry = self.entry(sp)
        losers = entry.sharers - {keep}
        entry.sharers -= losers
        entry.placeholders |= losers
        if entry.owner in losers:
            entry.owner = None
            entry.atomic = False
        entry.check()
        return losers

    def set_atomic(self, sp, c, value):
        entry = self.entry(sp)
        if entry.owner != c:
            raise ProtocolError(
                f"cell {c} flipping atomic on subpage {sp} owned by {entry.owner}"
            )
        entry.atomic = value
        entry.check()

    def drop_copy(self, sp, c):
        entry = self.entry(sp)
        entry.sharers.discard(c)
        entry.placeholders.discard(c)
        if entry.owner == c:
            entry.owner = None
            entry.atomic = False
        entry.check()

    def responder_for(self, sp, requester, same_ring):
        candidates = self.entry(sp).sharers - {requester}
        if not candidates:
            return None
        local = candidates & set(same_ring)
        return min(local if local else candidates)

    def summary(self):
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

    def state_in(self, sp, c):
        entry = self.entry(sp)
        if c == entry.owner:
            return SubpageState.ATOMIC if entry.atomic else SubpageState.EXCLUSIVE
        if c in entry.sharers:
            return SubpageState.SHARED
        if c in entry.placeholders:
            return SubpageState.INVALID
        return None


# Low ids on both sides of the first ring boundary make collisions and
# off-ring responders likely; the full range reaches bit 1087.
_cells = st.one_of(st.integers(0, 3), st.integers(30, 33), st.integers(0, MAX_CELL))
_subpages = st.integers(0, 2)
# The protocol passes a ring's cell ids as a range; the last ring of a
# machine may be cut short.
_rings = st.builds(
    lambda ring, size: range(32 * ring, 32 * ring + size),
    st.one_of(st.integers(0, 1), st.integers(0, 33)),
    st.integers(1, 32),
)
_ops = st.one_of(
    st.tuples(st.just("record_fill_shared"), _subpages, _cells),
    st.tuples(st.just("record_fill_exclusive"), _subpages, _cells, st.booleans()),
    st.tuples(st.just("demote_owner"), _subpages),
    st.tuples(st.just("invalidate_others"), _subpages, _cells),
    st.tuples(st.just("set_atomic"), _subpages, _cells, st.booleans()),
    st.tuples(st.just("drop_copy"), _subpages, _cells),
    st.tuples(st.just("responder_for"), _subpages, _cells, _rings),
    st.tuples(st.just("state_in"), _subpages, _cells),
)


def _outcome(directory, op):
    """What ``op`` returns, or the ProtocolError it raises."""
    name, *args = op
    kwargs = {"atomic": args.pop()} if name == "record_fill_exclusive" else {}
    try:
        return ("ok", getattr(directory, name)(*args, **kwargs))
    except ProtocolError as err:
        return ("error", str(err))


class TestBitmaskMatchesSetReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ops, max_size=40))
    def test_same_views_and_errors(self, ops):
        got, want = Directory(), _RefDirectory()
        for op in ops:
            assert _outcome(got, op) == _outcome(want, op), op
            assert got.summary() == want.summary()
            for sp, ref in want._entries.items():
                entry = got.entry(sp)
                assert entry.sharers == ref.sharers
                assert entry.placeholders == ref.placeholders
                assert (entry.owner, entry.atomic, entry.created) == (
                    ref.owner, ref.atomic, ref.created
                )
                assert entry.has_valid_copy == bool(ref.sharers)
                for c in ref.sharers | ref.placeholders | {0, MAX_CELL}:
                    assert got.state_in(sp, c) is want.state_in(sp, c)

    def test_views_are_frozen_and_empty_views_shared(self):
        d = Directory()
        d.record_fill_shared(1, 1087)
        entry = d.entry(1)
        assert entry.sharers == frozenset({1087})
        assert isinstance(entry.sharers, frozenset)
        assert entry.placeholders is d.entry(2).sharers  # one empty view

    def test_messages_list_cell_ids(self):
        d = Directory()
        d.record_fill_shared(1, 40)
        d.record_fill_shared(1, 3)
        with pytest.raises(ProtocolError, match=r"live sharers \{3, 40\}"):
            d.record_fill_exclusive(1, 5)
