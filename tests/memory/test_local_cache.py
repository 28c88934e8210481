"""Tests for the second-level (local) cache and its coherence states."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.machine.config import MachineConfig
from repro.memory.local_cache import LocalCache, SubpageState


def make_local_cache(seed=0):
    return LocalCache(MachineConfig.ksr1(1).local_cache, np.random.default_rng(seed))


class TestGeometry:
    def test_published_geometry(self):
        cfg = MachineConfig.ksr1(1).local_cache
        assert cfg.total_bytes == 32 * 1024 * 1024
        assert cfg.ways == 16
        assert cfg.line_bytes == 128
        assert cfg.alloc_bytes == 16384
        assert cfg.lines_per_alloc == 128


class TestStates:
    def test_fill_and_query(self):
        lc = make_local_cache()
        fill = lc.fill(10, SubpageState.SHARED)
        assert fill.page_allocated
        assert lc.state_of(10) is SubpageState.SHARED
        assert lc.is_valid(10)

    def test_fill_invalid_rejected(self):
        lc = make_local_cache()
        with pytest.raises(ProtocolError):
            lc.fill(10, SubpageState.INVALID)

    def test_invalidate_keeps_placeholder(self):
        lc = make_local_cache()
        lc.fill(10, SubpageState.SHARED)
        assert lc.invalidate(10) is True
        assert lc.contains(10)
        assert not lc.is_valid(10)
        assert lc.invalidate(10) is False  # already invalid

    def test_invalidate_absent_is_noop(self):
        assert make_local_cache().invalidate(99) is False

    def test_snarf_revives_placeholder_only(self):
        lc = make_local_cache()
        lc.fill(10, SubpageState.SHARED)
        assert lc.snarf(10) is False  # valid copies don't snarf
        lc.invalidate(10)
        assert lc.snarf(10) is True
        assert lc.state_of(10) is SubpageState.SHARED
        assert lc.n_snarfs == 1

    def test_snarf_absent_is_noop(self):
        assert make_local_cache().snarf(5) is False

    def test_set_state_requires_presence(self):
        lc = make_local_cache()
        with pytest.raises(ProtocolError, match="to EXCLUSIVE on absent subpage 3"):
            lc.set_state(3, SubpageState.EXCLUSIVE)

    def test_drop_removes_completely(self):
        lc = make_local_cache()
        lc.fill(10, SubpageState.EXCLUSIVE)
        lc.drop(10)
        assert not lc.contains(10)

    def test_state_properties(self):
        assert not SubpageState.INVALID.valid
        assert SubpageState.SHARED.valid and not SubpageState.SHARED.writable
        assert SubpageState.EXCLUSIVE.writable
        assert SubpageState.ATOMIC.writable


class TestAllocation:
    def test_same_page_subpages_share_frame(self):
        lc = make_local_cache()
        first = lc.fill(0, SubpageState.SHARED)  # page 0
        second = lc.fill(1, SubpageState.SHARED)  # same 16 KB page
        assert first.page_allocated and not second.page_allocated

    def test_fills_without_eviction_share_frozen_outcomes(self):
        lc = make_local_cache()
        first = lc.fill(0, SubpageState.SHARED)
        assert lc.fill(128, SubpageState.SHARED) is first  # another fresh page
        same_page = lc.fill(1, SubpageState.SHARED)
        assert lc.fill(2, SubpageState.EXCLUSIVE) is same_page
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.page_allocated = False

    def test_eviction_reports_displaced_subpages(self):
        lc = make_local_cache()
        n_sets = MachineConfig.ksr1(1).local_cache.n_sets
        lines_per_page = 128
        # overflow set 0 with 17 pages mapping to it
        evicted = []
        for k in range(17):
            page = k * n_sets
            fill = lc.fill(page * lines_per_page, SubpageState.SHARED)
            evicted.extend(fill.evicted_subpages)
        assert len(evicted) == 1  # exactly one page displaced, one subpage in it
        assert not lc.contains(evicted[0])
