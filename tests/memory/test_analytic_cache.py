"""Tests for the StatCache-style analytic model, including validation
against the exact event-level cache simulator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryModelError
from repro.machine.config import CacheConfig, SUBPAGE_BYTES, WORD_BYTES
from repro.memory.analytic_cache import (
    AnalyticCache,
    CacheModelResult,
    fixpoint_miss_ratio,
    set_full_probability,
    time_distances,
)
from repro.memory.cache_sets import SetAssociativeCache
from repro.memory.streams import concat, gather, sequential

WORDS_PER_SUBPAGE = SUBPAGE_BYTES // WORD_BYTES


class TestTimeDistances:
    def test_basic(self):
        ids = np.array([1, 2, 1, 1, 3, 2])
        d, n_cold = time_distances(ids)
        assert list(d) == [-1, -1, 2, 1, -1, 4]
        assert n_cold == 3

    def test_empty(self):
        d, n_cold = time_distances(np.empty(0, dtype=np.int64))
        assert d.size == 0 and n_cold == 0

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_matches_naive(self, ids_list):
        ids = np.array(ids_list)
        d, n_cold = time_distances(ids)
        last: dict[int, int] = {}
        for i, x in enumerate(ids_list):
            expected = i - last[x] if x in last else -1
            assert d[i] == expected
            last[x] = i
        assert n_cold == len(set(ids_list))


class TestFixpoint:
    def test_all_cold_stream(self):
        ids = np.arange(100)
        d, n_cold = time_distances(ids)
        m, p = fixpoint_miss_ratio(d, n_cold, n_lines=1000)
        assert m == pytest.approx(1.0)
        assert np.all(p == 1.0)

    def test_tiny_working_set_all_hits_after_cold(self):
        ids = np.tile(np.arange(4), 100)
        d, n_cold = time_distances(ids)
        m, _ = fixpoint_miss_ratio(d, n_cold, n_lines=10_000)
        assert m == pytest.approx(4 / 400, abs=1e-3)

    def test_thrashing_working_set(self):
        # 1000 distinct lines cycled through a 10-line cache: ~all miss
        ids = np.tile(np.arange(1000), 3)
        d, n_cold = time_distances(ids)
        m, _ = fixpoint_miss_ratio(d, n_cold, n_lines=10)
        assert m > 0.95

    def test_invalid_cache_size(self):
        with pytest.raises(MemoryModelError):
            fixpoint_miss_ratio(np.array([-1]), 1, n_lines=0)


class TestAgainstExactSimulator:
    """The analytic model should land near the event-level cache with
    random replacement, across qualitatively different streams."""

    CONFIG = CacheConfig(total_bytes=64 * 1024, ways=4, line_bytes=128, alloc_bytes=2048)

    def _exact_miss_ratio(self, subpage_ids: np.ndarray, seed: int = 0) -> float:
        # event-level cache at subpage granularity
        cache = SetAssociativeCache(self.CONFIG, np.random.default_rng(seed))
        misses = sum(0 if cache.access(int(sp)).line_hit else 1 for sp in subpage_ids)
        return misses / len(subpage_ids)

    def _compare(self, stream, tol):
        model = AnalyticCache(self.CONFIG).simulate(stream)
        exact = np.mean(
            [self._exact_miss_ratio(stream.subpages, seed) for seed in range(3)]
        )
        assert model.miss_ratio == pytest.approx(exact, abs=tol)

    def test_fits_in_cache(self):
        # 32 KB working set in a 64 KB cache, swept 4 times
        self._compare(sequential(0, 4096).repeated(4), tol=0.05)

    def test_thrashes_cache(self):
        # 256 KB working set in a 64 KB cache
        self._compare(sequential(0, 32768).repeated(2), tol=0.08)

    def test_random_gather(self):
        rng = np.random.default_rng(1)
        idx = rng.integers(0, 20_000, size=30_000)
        self._compare(gather(0, idx), tol=0.08)

    def test_skewed_gather(self):
        rng = np.random.default_rng(2)
        idx = (rng.zipf(1.5, size=30_000) % 40_000).astype(np.int64)
        self._compare(gather(0, idx), tol=0.08)


class TestAnalyticCacheResults:
    CONFIG = CacheConfig(total_bytes=64 * 1024, ways=4, line_bytes=128, alloc_bytes=2048)

    def test_warm_iteration_drops_cold_misses(self):
        stream = sequential(0, 2048)  # 16 KB, fits in 64 KB easily
        cold = AnalyticCache(self.CONFIG).simulate(stream)
        warm = AnalyticCache(self.CONFIG).simulate(stream, iterations=3)
        assert cold.miss_ratio == pytest.approx(1.0)
        assert warm.miss_ratio < 0.1

    def test_word_hits_account_for_weights(self):
        stream = sequential(0, 1600)  # 100 subpages, 16 words each
        res = AnalyticCache(self.CONFIG).simulate(stream)
        assert res.n_word_accesses == 1600
        assert res.expected_word_hits == pytest.approx(1600 - res.expected_line_misses)

    def test_frame_allocs_bounded_by_footprint(self):
        stream = sequential(0, 65536)
        res = AnalyticCache(self.CONFIG).simulate(stream)
        n_pages_touched = len(np.unique(stream.mapped(self.CONFIG.alloc_bytes // 128)))
        assert res.expected_frame_allocs >= n_pages_touched * 0.99

    def test_empty_stream(self):
        res = AnalyticCache(self.CONFIG).simulate(sequential(0, 0))
        assert res.n_touches == 0 and res.miss_ratio == 0.0

    def test_bad_iterations(self):
        with pytest.raises(MemoryModelError):
            AnalyticCache(self.CONFIG).simulate(sequential(0, 16), iterations=0)


def _reference_distances(ids: np.ndarray) -> tuple[np.ndarray, int]:
    """Reuse distances by one stable sort of the whole array."""
    n = ids.size
    if n == 0:
        return np.empty(0, dtype=np.int64), 0
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    sorted_pos = order.astype(np.int64)
    prev = np.empty(n, dtype=np.int64)
    prev[1:] = np.where(sorted_ids[1:] == sorted_ids[:-1], sorted_pos[:-1], -1)
    prev[0] = -1
    dist_sorted = np.where(prev >= 0, sorted_pos - prev, -1)
    distances = np.empty(n, dtype=np.int64)
    distances[order] = dist_sorted
    return distances, int(np.count_nonzero(distances < 0))


def _reference_simulate(cache: AnalyticCache, stream, iterations: int) -> CacheModelResult:
    """The warm model priced over ``stream.repeated(iterations)`` — the
    tiled, run-length compressed k-fold stream — sorted in full."""
    full = stream.repeated(iterations) if iterations > 1 else stream
    ids = full.subpages
    n = ids.size
    if n == 0:
        return CacheModelResult(0, 0, 0.0, 0, 0.0, 0.0)
    frame_ids = full.mapped(cache.alloc_subpages)
    p_evict = set_full_probability(
        int(np.unique(frame_ids).size), cache.n_sets, cache.ways, cache.n_frames
    )
    f_dist, f_cold = _reference_distances(frame_ids)
    m_f, p_frame_miss = fixpoint_miss_ratio(
        f_dist, f_cold, cache.n_frames, evict_prob=p_evict
    )
    distances, n_cold = _reference_distances(ids)
    warm = distances >= 0
    log_survive = math.log1p(-p_evict / cache.n_frames) if p_evict > 0 else 0.0
    p_miss = np.ones(n)
    if log_survive != 0.0:
        exponent = m_f * (frame_ids.size / n) * distances[warm].astype(np.float64)
        p_miss[warm] = -np.expm1(exponent * log_survive)
    else:
        p_miss[warm] = 0.0
    allocs = f_cold + float(p_frame_miss[f_dist >= 0].sum())
    if iterations > 1:
        tail = slice((iterations - 1) * stream.n_touches, None)
        misses = float(p_miss[tail].sum())
        cold = int(np.count_nonzero(distances[tail] < 0))
        touches = stream.n_touches
        allocs /= iterations
    else:
        misses = float(p_miss.sum())
        cold = n_cold
        touches = n
    return CacheModelResult(
        touches, stream.n_word_accesses, misses, cold, allocs, misses / touches
    )


#: A thrashable cache (capacity acts) and a roomy one (it does not).
_WARM_CONFIGS = (
    CacheConfig(total_bytes=8 * 1024, ways=2, line_bytes=128, alloc_bytes=1024),
    CacheConfig(total_bytes=64 * 1024, ways=4, line_bytes=128, alloc_bytes=2048),
)


class TestWarmPricingExact:
    """``simulate(stream, iterations=k)`` prices the k-fold stream from
    one sorted copy; it must return the very floats the full sort of
    ``stream.repeated(k)`` gives."""

    def _check(self, stream):
        for config in _WARM_CONFIGS:
            for k in (1, 2, 3):
                got = AnalyticCache(config).simulate(stream, iterations=k)
                want = _reference_simulate(AnalyticCache(config), stream, k)
                assert repr(got) == repr(want), (config, k)

    @given(
        words=st.lists(st.integers(min_value=0, max_value=3000), min_size=1, max_size=300),
        close=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_gathers(self, words, close):
        if close:  # the first id equals the last: copies fuse when tiled
            words = words + [words[0]]
        self._check(gather(0, np.array(words)))

    def test_first_id_equals_last(self):
        stream = gather(0, np.array([0, 16, 32, 16, 300, 0]))
        assert stream.subpages[0] == stream.subpages[-1]
        self._check(stream)

    def test_frames_fuse_but_lines_do_not(self):
        stream = gather(0, np.array([0, 16, 2000, 48]))
        assert stream.subpages[0] != stream.subpages[-1]
        self._check(stream)

    def test_single_touch_stream(self):
        self._check(sequential(0, 1))
        self._check(sequential(0, 16))

    def test_sequential_and_concat(self):
        self._check(sequential(0, 4096))
        self._check(concat([sequential(0, 512), gather(8192, np.arange(0, 900, 7))]))

    def test_empty_stream(self):
        self._check(sequential(0, 0))

    def test_zero_iterations_still_raise(self):
        for stream in (sequential(0, 0), sequential(0, 64)):
            with pytest.raises(MemoryModelError):
                AnalyticCache(_WARM_CONFIGS[0]).simulate(stream, iterations=0)


class TestRepeatedTimeDistances:
    @given(
        ids_list=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=60),
        k=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_full_sort_of_the_compressed_repeat(self, ids_list, k):
        ids = np.array(ids_list, dtype=np.int64)
        tiled = np.tile(ids, k)
        keep = np.concatenate(([True], tiled[1:] != tiled[:-1]))
        want = _reference_distances(tiled[keep])
        got = time_distances(ids, k)
        assert got[1] == want[1]
        assert np.array_equal(got[0], want[0])


def _argsort_time_distances(ids: np.ndarray, iterations: int = 1) -> tuple[np.ndarray, int]:
    """``time_distances`` as written with a stable ``argsort``: the oracle
    its composite-key order must reproduce byte for byte."""
    ids = np.ascontiguousarray(ids)
    if iterations > 1 and ids.size > 1:
        runs = ids[1:] != ids[:-1]
        if not runs.all():
            ids = ids[np.concatenate(([True], runs))]
    n = ids.size
    if n == 0:
        return np.empty(0, dtype=np.int64), 0
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    firsts = np.concatenate(([0], np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1))
    gap = np.empty(n, dtype=np.int64)
    np.subtract(order[1:], order[:-1], out=gap[1:])
    gap[firsts] = -1
    fused = int(iterations > 1 and ids[0] == ids[-1])
    period = n - fused
    distances = np.empty(n + (iterations - 1) * period, dtype=np.int64)
    distances[order] = gap
    if iterations == 1:
        return distances, firsts.size
    distances[n:n + period] = distances[fused:n]
    first_pos = order[firsts]
    lasts = np.append(firsts[1:], n) - 1
    wrap = period - order[lasts] + first_pos
    if fused:
        keep = first_pos > 0
        first_pos, wrap = first_pos[keep], wrap[keep]
    distances[n - fused + first_pos] = wrap
    distances[n:].reshape(iterations - 1, period)[1:] = distances[n:n + period]
    return distances, firsts.size


class TestTimeDistancesMatchArgsort:
    """The stable-order rewrite returns the very bytes of the argsort one."""

    def _check(self, ids: np.ndarray, iterations: int) -> None:
        got, got_cold = time_distances(ids, iterations)
        want, want_cold = _argsort_time_distances(ids, iterations)
        assert got_cold == want_cold
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @given(
        ids_list=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=200),
        base=st.sampled_from([0, 7, 1 << 40]),
        iterations=st.integers(min_value=1, max_value=3),
        fused=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_ids(self, ids_list, base, iterations, fused):
        if fused:  # first id equal to the last: k-fold copies fuse
            ids_list = ids_list + [ids_list[0]]
        self._check(np.array(ids_list, dtype=np.int64) + base, iterations)

    @pytest.mark.parametrize("iterations", [1, 2, 3])
    def test_empty_and_one_element(self, iterations):
        self._check(np.empty(0, dtype=np.int64), iterations)
        self._check(np.array([5], dtype=np.int64), iterations)

    @pytest.mark.parametrize("iterations", [1, 2, 3])
    def test_int64_overflowing_range_falls_back(self, iterations):
        ids = np.array([1 << 62, 3, (1 << 62) + 9, 3, 1 << 62, 0, (1 << 62) + 9, 1 << 62])
        assert (int(ids.max()) - int(ids.min()) + 1) * ids.size > np.iinfo(np.int64).max
        self._check(ids, iterations)
