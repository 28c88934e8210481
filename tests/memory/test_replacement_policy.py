"""Tests for the replacement-policy option (random vs LRU ablation)."""

import numpy as np
import pytest

from repro.errors import MemoryModelError
from repro.machine.config import CacheConfig
from repro.memory.cache_sets import SetAssociativeCache

CONFIG = CacheConfig(total_bytes=8 * 256, ways=2, line_bytes=64, alloc_bytes=256)


def cache(policy, seed=0):
    return SetAssociativeCache(CONFIG, np.random.default_rng(seed), policy=policy)


class TestLru:
    def test_unknown_policy_rejected(self):
        with pytest.raises(MemoryModelError):
            cache("clock")

    def test_lru_evicts_least_recent(self):
        c = cache("lru")
        lpa = c.lines_per_alloc
        # three allocation units in set 0 (4 sets): ids 0, 4, 8
        c.access(0 * lpa)
        c.access(4 * lpa)
        c.access(0 * lpa)  # unit 0 is now most recent
        result = c.access(8 * lpa)  # set full: LRU victim is unit 4
        assert result.evicted_alloc_id == 4
        assert c.contains_frame(0)

    def test_lru_touch_refreshes_recency(self):
        c = cache("lru")
        lpa = c.lines_per_alloc
        c.access(0 * lpa)
        c.access(4 * lpa)
        c.access(0 * lpa)
        c.access(4 * lpa)  # order now 0, 4
        assert c.access(8 * lpa).evicted_alloc_id == 0

    def test_lru_cyclic_sweep_worst_case(self):
        """Cyclic over-capacity sweep: LRU hit rate collapses while
        random replacement keeps a fraction — why random replacement
        is a defensible default, per the ablation benchmark."""

        def hit_rate(policy):
            c = cache(policy, seed=3)
            lpa = c.lines_per_alloc
            for _ in range(6):
                for unit in range(12):  # 3 units per 2-way set: every
                    c.access(unit * lpa)  # set is oversubscribed
            return c.hit_rate

        assert hit_rate("lru") < 0.05
        assert hit_rate("random") > 0.10

    def test_policies_agree_under_capacity(self):
        def hit_rate(policy):
            c = cache(policy)
            lpa = c.lines_per_alloc
            for _ in range(3):
                for unit in range(6):
                    c.access(unit * lpa)
            return c.hit_rate

        assert hit_rate("lru") == hit_rate("random") == pytest.approx(2 / 3)


class TestEvictedLines:
    """An eviction reports the displaced frame's present lines, sorted,
    under either policy."""

    @pytest.mark.parametrize("policy", ["random", "lru"])
    def test_evicted_lines_sorted(self, policy):
        c = cache(policy)
        lpa = c.lines_per_alloc
        # fill units 0 and 4 of set 0 out of order, leaving gaps
        for line in (3, 0, 2):
            c.access(0 * lpa + line)
        for line in (2, 1):
            c.access(4 * lpa + line)
        r = c.access(8 * lpa)  # set full: one of the two is displaced
        assert r.evicted_alloc_id in (0, 4)
        expected = {0: (0, 2, 3), 4: (4 * lpa + 1, 4 * lpa + 2)}[r.evicted_alloc_id]
        assert r.evicted_lines == expected
        assert not any(c.contains_line(line) for line in expected)
        assert c.contains_line(8 * lpa)

    def test_lru_victim_lines(self):
        c = cache("lru")
        lpa = c.lines_per_alloc
        c.access(1)
        c.access(0)
        c.access(4 * lpa)
        r = c.access(8 * lpa)
        assert (r.evicted_alloc_id, r.evicted_lines) == (0, (0, 1))

    @pytest.mark.parametrize("policy", ["random", "lru"])
    def test_drop_frame_reports_sorted_lines(self, policy):
        c = cache(policy)
        for line in (3, 1, 2):
            c.access(line)
        assert c.drop_frame(0) == (1, 2, 3)
