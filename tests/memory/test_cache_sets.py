"""Tests for the generic set-associative cache."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryModelError
from repro.machine.config import CacheConfig
from repro.memory.cache_sets import (
    FRAME_ALLOC,
    LINE_FILL,
    LINE_HIT,
    AccessResult,
    SetAssociativeCache,
)


def small_cache(ways=2, alloc_bytes=256, line_bytes=64, sets=4, seed=0):
    config = CacheConfig(
        total_bytes=sets * ways * alloc_bytes,
        ways=ways,
        line_bytes=line_bytes,
        alloc_bytes=alloc_bytes,
    )
    return SetAssociativeCache(config, np.random.default_rng(seed))


class TestBasicBehaviour:
    def test_first_touch_allocates_frame(self):
        c = small_cache()
        r = c.access(0)
        assert r.line_missed and r.frame_allocated and r.evicted_alloc_id is None

    def test_second_touch_hits(self):
        c = small_cache()
        c.access(0)
        assert c.access(0).line_hit

    def test_same_frame_other_line_misses_without_alloc(self):
        c = small_cache()  # 4 lines per 256-byte frame
        c.access(0)
        r = c.access(1)
        assert r.line_missed and not r.frame_allocated

    def test_negative_line_rejected(self):
        with pytest.raises(MemoryModelError):
            small_cache().access(-1)


class TestEviction:
    def test_eviction_when_set_overflows(self):
        c = small_cache(ways=2, sets=4)
        lines_per_alloc = c.lines_per_alloc
        # three allocation units mapping to set 0: alloc ids 0, 4, 8
        c.access(0 * lines_per_alloc)
        c.access(4 * lines_per_alloc)
        r = c.access(8 * lines_per_alloc)
        assert r.frame_allocated
        assert r.evicted_alloc_id in (0, 4)
        assert c.n_evictions == 1

    def test_evicted_lines_reported(self):
        c = small_cache(ways=1, sets=4)
        lpa = c.lines_per_alloc
        c.access(0)
        c.access(1)
        r = c.access(4 * lpa)  # same set, way conflict
        assert set(r.evicted_lines) == {0, 1}
        assert not c.contains_line(0)

    def test_random_replacement_uses_rng(self):
        # with many conflicting allocations both ways get victimized
        victims = set()
        c = small_cache(ways=2, sets=1, seed=3)
        lpa = c.lines_per_alloc
        for alloc in range(50):
            r = c.access(alloc * lpa)
            if r.evicted_alloc_id is not None:
                victims.add(r.evicted_alloc_id % 2)
        assert victims == {0, 1}


class TestSharedResults:
    """The outcomes without an eviction are shared constants."""

    def test_no_eviction_outcomes_are_the_shared_constants(self):
        c = small_cache()
        assert c.access(0) is FRAME_ALLOC
        assert c.access(1) is LINE_FILL
        assert c.access(1) is LINE_HIT

    def test_shared_constants_describe_their_outcome(self):
        assert (LINE_HIT.line_hit, LINE_HIT.frame_allocated) == (True, False)
        assert (LINE_FILL.line_hit, LINE_FILL.frame_allocated) == (False, False)
        assert (FRAME_ALLOC.line_hit, FRAME_ALLOC.frame_allocated) == (False, True)
        for shared in (LINE_HIT, LINE_FILL, FRAME_ALLOC):
            assert shared.evicted_alloc_id is None and shared.evicted_lines == ()

    @pytest.mark.parametrize("shared", [LINE_HIT, LINE_FILL, FRAME_ALLOC])
    def test_shared_constants_are_frozen(self, shared):
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.line_hit = not shared.line_hit
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.evicted_lines = (1,)
        # slotted: no per-instance dict to smuggle state into either
        with pytest.raises((AttributeError, TypeError)):
            shared.extra = 1

    def test_eviction_allocates_a_fresh_result(self):
        c = small_cache(ways=1, sets=1)
        lpa = c.lines_per_alloc
        c.access(0)
        r = c.access(lpa)
        assert type(r) is AccessResult
        assert all(r is not shared for shared in (LINE_HIT, LINE_FILL, FRAME_ALLOC))
        assert r.frame_allocated and not r.line_hit
        assert (r.evicted_alloc_id, r.evicted_lines) == (0, (0,))


class TestMaintenance:
    def test_drop_line(self):
        c = small_cache()
        c.access(0)
        assert c.drop_line(0) is True
        assert c.drop_line(0) is False
        assert not c.contains_line(0)
        assert c.contains_frame(0)  # frame survives

    def test_drop_frame(self):
        c = small_cache()
        c.access(0)
        c.access(1)
        assert set(c.drop_frame(0)) == {0, 1}
        assert not c.contains_frame(0)
        assert c.drop_frame(0) == ()

    def test_counters_and_reset(self):
        c = small_cache()
        c.access(0)
        c.access(0)
        assert c.n_accesses == 2 and c.n_line_hits == 1
        assert c.hit_rate == pytest.approx(0.5)
        c.reset_counters()
        assert c.n_accesses == 0
        assert c.hit_rate == 0.0


class TestInvariants:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=300))
    def test_capacity_never_exceeded(self, lines):
        c = small_cache(ways=2, sets=4)
        for line in lines:
            c.access(line)
        assert c.n_frames_used <= 8

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=200))
    def test_immediate_re_access_always_hits(self, lines):
        c = small_cache()
        for line in lines:
            c.access(line)
            assert c.access(line).line_hit
