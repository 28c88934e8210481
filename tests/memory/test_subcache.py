"""Tests for the first-level (sub-)cache model."""

import dataclasses

import numpy as np
import pytest

from repro.machine.config import MachineConfig, SUBBLOCK_BYTES, SUBPAGE_BYTES


def make_subcache(seed=0):
    from repro.memory.subcache import SubCache

    return SubCache(MachineConfig.ksr1(1).subcache, np.random.default_rng(seed))


class TestGeometry:
    def test_published_geometry(self):
        cfg = MachineConfig.ksr1(1).subcache
        assert cfg.total_bytes == 256 * 1024
        assert cfg.ways == 2
        assert cfg.line_bytes == 64
        assert cfg.alloc_bytes == 2048
        assert cfg.n_sets == 64
        assert cfg.lines_per_alloc == 32


class TestAccessPatterns:
    def test_words_within_subblock_hit_after_first(self):
        sc = make_subcache()
        first = sc.access(0x1000)
        assert not first.line_hit
        for offset in range(8, SUBBLOCK_BYTES, 8):
            assert sc.access(0x1000 + offset).line_hit

    def test_adjacent_subblock_misses_same_block(self):
        sc = make_subcache()
        sc.access(0x1000)
        r = sc.access(0x1000 + SUBBLOCK_BYTES)
        assert not r.line_hit and not r.frame_allocated

    def test_block_stride_allocates_every_time(self):
        # the access pattern of the paper's +50 % measurement
        sc = make_subcache()
        for i in range(8):
            r = sc.access(i * 2048)
            assert r.frame_allocated

    def test_drop_subpage_purges_both_subblocks(self):
        sc = make_subcache()
        sc.access(0x1000)
        sc.access(0x1000 + SUBBLOCK_BYTES)
        sc.drop_subpage(0x1000 // SUBPAGE_BYTES)
        assert not sc.contains(0x1000)
        assert not sc.contains(0x1000 + SUBBLOCK_BYTES)

    def test_counters(self):
        sc = make_subcache()
        sc.access(0)
        sc.access(0)
        sc.access(64)
        assert sc.n_accesses == 3
        assert sc.n_misses == 2
        assert sc.hit_rate == pytest.approx(1 / 3)


class TestSharedOutcomes:
    def test_no_eviction_outcomes_are_shared(self):
        sc = make_subcache()
        first = sc.access(0x1000)
        assert first.frame_allocated and not first.line_hit
        assert sc.access(0x2000) is first  # another fresh block
        fill = sc.access(0x1000 + SUBBLOCK_BYTES)
        assert not fill.line_hit and not fill.frame_allocated
        hit = sc.access(0x1000)
        assert hit.line_hit and sc.access(0x1008) is hit

    def test_shared_outcomes_are_frozen(self):
        sc = make_subcache()
        for outcome in (sc.access(0), sc.access(64), sc.access(0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                outcome.line_hit = not outcome.line_hit
            with pytest.raises(dataclasses.FrozenInstanceError):
                outcome.evicted_lines = (1,)

    def test_eviction_reports_the_sorted_subblocks(self):
        sc = make_subcache()
        cfg = MachineConfig.ksr1(1).subcache
        set_stride = cfg.n_sets * cfg.alloc_bytes  # same set, next tag
        sc.access(3 * SUBBLOCK_BYTES)
        sc.access(0)
        sc.access(set_stride)
        evicting = sc.access(2 * set_stride)  # 2-way set overflows
        assert evicting.frame_allocated and not evicting.line_hit
        assert evicting.evicted_lines in (
            (0, 3),
            (set_stride // SUBBLOCK_BYTES,),
        )


class TestCapacityBehaviour:
    def test_working_set_larger_than_cache_thrashes(self):
        """A 1 MB sweep cannot be held by the 256 KB sub-cache — the
        setup the paper uses to measure local-cache latency."""
        sc = make_subcache()
        one_mb_subblocks = (1 << 20) // SUBBLOCK_BYTES
        # two sweeps; second sweep should still miss heavily
        for _ in range(2):
            for i in range(one_mb_subblocks):
                sc.access(i * SUBBLOCK_BYTES)
        assert sc.hit_rate < 0.5

    def test_small_working_set_stays_resident(self):
        sc = make_subcache()
        subblocks = (64 * 1024) // SUBBLOCK_BYTES  # 64 KB fits easily
        for _ in range(3):
            for i in range(subblocks):
                sc.access(i * SUBBLOCK_BYTES)
        assert sc.hit_rate > 0.6
