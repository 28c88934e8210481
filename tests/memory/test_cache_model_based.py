"""Model-based (stateful) testing of the set-associative cache.

The cache is checked step-by-step against an independent reference
model, whose frames are sets of line ids, under arbitrary
hypothesis-generated access/drop sequences.  LRU is deterministic; for
random replacement the reference draws its victim from a generator
seeded like the cache's, so the two agree only while every set keeps
the same frame order.
"""

import numpy as np
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.machine.config import CacheConfig
from repro.memory.cache_sets import SetAssociativeCache

CONFIG = CacheConfig(total_bytes=4 * 2 * 256, ways=2, line_bytes=64, alloc_bytes=256)
LINES_PER_ALLOC = 4
N_SETS = 4  # derived: 8 frames / 2 ways


class _Reference:
    """Straight-line reference: per-set ordered dict of frames."""

    def __init__(self, policy):
        self.lru = policy == "lru"
        self.rng = np.random.default_rng(0)
        self.sets = [dict() for _ in range(N_SETS)]  # alloc_id -> set(lines)

    def access(self, line_id):
        alloc = line_id // LINES_PER_ALLOC
        s = self.sets[alloc % N_SETS]
        if alloc in s:
            lines = s[alloc]
            if self.lru:
                s[alloc] = s.pop(alloc)  # refresh recency
            hit = line_id in lines
            lines.add(line_id)
            return hit, False, ()
        evicted = ()
        if len(s) >= 2:
            victim = next(iter(s)) if self.lru else list(s)[int(self.rng.integers(len(s)))]
            evicted = tuple(sorted(s.pop(victim)))
        s[alloc] = {line_id}
        return False, True, evicted

    def contains_line(self, line_id):
        alloc = line_id // LINES_PER_ALLOC
        return line_id in self.sets[alloc % N_SETS].get(alloc, ())

    def drop_line(self, line_id):
        alloc = line_id // LINES_PER_ALLOC
        self.sets[alloc % N_SETS].get(alloc, set()).discard(line_id)

    def drop_frame(self, alloc):
        return tuple(sorted(self.sets[alloc % N_SETS].pop(alloc, ())))

    def frames_used(self):
        return sum(len(s) for s in self.sets)


class LruCacheMachine(RuleBasedStateMachine):
    """Drive the real cache and the reference in lockstep."""

    policy = "lru"

    def __init__(self):
        super().__init__()
        self.cache = SetAssociativeCache(
            CONFIG, np.random.default_rng(0), policy=self.policy
        )
        self.reference = _Reference(self.policy)

    @rule(line=st.integers(min_value=0, max_value=63))
    def access(self, line):
        result = self.cache.access(line)
        ref_hit, ref_alloc, ref_evicted = self.reference.access(line)
        assert result.line_hit == ref_hit
        assert result.frame_allocated == ref_alloc
        assert result.evicted_lines == ref_evicted

    @rule(line=st.integers(min_value=0, max_value=63))
    def drop_line(self, line):
        self.cache.drop_line(line)
        self.reference.drop_line(line)

    @rule(alloc=st.integers(min_value=0, max_value=15))
    def drop_frame(self, alloc):
        assert self.cache.drop_frame(alloc) == self.reference.drop_frame(alloc)

    @invariant()
    def same_occupancy(self):
        assert self.cache.n_frames_used == self.reference.frames_used()

    @invariant()
    def same_contents_sample(self):
        for line in (0, 7, 21, 42, 63):
            assert self.cache.contains_line(line) == self.reference.contains_line(line)


class RandomCacheMachine(LruCacheMachine):
    """The same lockstep drive under the KSR's random replacement."""

    policy = "random"


TestLruModelBased = LruCacheMachine.TestCase
TestLruModelBased.settings = settings(max_examples=40, stateful_step_count=60, deadline=None)
TestRandomModelBased = RandomCacheMachine.TestCase
TestRandomModelBased.settings = settings(max_examples=40, stateful_step_count=60, deadline=None)
