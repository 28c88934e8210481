"""Kernel pricing is exact: memo-served results equal the computed
ones, shifted streams equal directly built ones.

The memo reference is the first, computed call of a fresh
:class:`AnalyticCache`, which has nothing to serve it from.
"""

import numpy as np
import pytest

from repro.kernels.vectorized import shift_stream
from repro.machine.config import SUBPAGE_BYTES, MachineConfig
from repro.memory.analytic_cache import AnalyticCache, stream_fingerprint
from repro.memory.streams import concat, gather, sequential, strided


def _configs():
    cfg = MachineConfig.ksr1(n_cells=2)
    return cfg.subcache, cfg.local_cache


def _computed(config, stream, iterations=1):
    """``stream`` priced by a fresh cache: a computed result, never a memo hit."""
    cache = AnalyticCache(config)
    result = cache.simulate(stream, iterations=iterations)
    assert cache.memo_hits == 0
    return result


def _streams():
    rng = np.random.default_rng(7)
    return [
        sequential(0, 4096, write_fraction=0.5),
        sequential(1 << 16, 4096, write_fraction=0.5),
        strided(0, 512, 33),
        gather(0, rng.integers(0, 8192, size=1024)),
        concat([sequential(0, 256), gather(2048, rng.integers(0, 512, size=128))]),
    ]


class TestMemoizedCache:
    @pytest.mark.parametrize("iterations", [1, 3])
    def test_results_match_plain_model(self, iterations):
        for config in _configs():
            memo = AnalyticCache(config)
            for stream in _streams():
                computed = _computed(config, stream, iterations)
                for _ in range(2):  # priced, then served from the memo
                    assert memo.simulate(stream, iterations=iterations) == computed
            assert memo.memo_hits >= len(_streams())

    def test_repeat_simulation_hits_the_memo(self):
        config = _configs()[0]
        memo = AnalyticCache(config)
        stream = sequential(0, 2048, write_fraction=0.25)
        first = memo.simulate(stream)
        assert memo.memo_hits == 0
        second = memo.simulate(stream)
        assert second == first
        assert memo.memo_hits == 1

    def test_frame_aligned_translation_hits_the_memo(self):
        """Processor p's stream — processor 0's shifted by whole
        allocation frames — must price from the memo."""
        config = _configs()[1]
        memo = AnalyticCache(config)
        base = sequential(0, 4096, write_fraction=0.5)
        frame_bytes = memo.alloc_subpages * SUBPAGE_BYTES
        translated = sequential(3 * frame_bytes, 4096, write_fraction=0.5)
        result0 = memo.simulate(base)
        result3 = memo.simulate(translated)
        assert memo.memo_hits == 1
        assert result3 == result0 == _computed(config, translated)

    def test_unaligned_translation_misses_but_stays_exact(self):
        config = _configs()[1]
        memo = AnalyticCache(config)
        memo.simulate(sequential(0, 4096))
        shifted = sequential(SUBPAGE_BYTES, 4096)
        assert memo.simulate(shifted) == _computed(config, shifted)
        assert memo.memo_hits == 0

    def test_iterations_key_separately(self):
        config = _configs()[0]
        memo = AnalyticCache(config)
        stream = strided(0, 600, 17)
        assert memo.simulate(stream, iterations=1) == _computed(config, stream)
        assert memo.simulate(stream, iterations=4) == _computed(config, stream, 4)
        assert memo.memo_hits == 0

    def test_empty_stream_bypasses_memo(self):
        config = _configs()[0]
        memo = AnalyticCache(config)
        empty = concat([])
        assert memo.simulate(empty) == _computed(config, empty)
        assert memo.simulate(empty) == _computed(config, empty)
        assert memo.memo_hits == memo.memo_misses == 0


class TestStreamFingerprint:
    def test_translation_invariant(self):
        a = sequential(0, 1000, write_fraction=0.5)
        b = sequential(64 * SUBPAGE_BYTES, 1000, write_fraction=0.5)
        assert stream_fingerprint(a)[0] == stream_fingerprint(b)[0]

    def test_content_sensitive(self):
        a = sequential(0, 1000, write_fraction=0.5)
        assert stream_fingerprint(a) != stream_fingerprint(sequential(0, 1001, write_fraction=0.5))
        assert stream_fingerprint(a) != stream_fingerprint(sequential(0, 1000, write_fraction=0.25))

    def test_cached_on_the_stream_object(self):
        stream = sequential(0, 128)
        fp = stream_fingerprint(stream)
        assert stream_fingerprint(stream) is fp


class TestShiftStream:
    @pytest.mark.parametrize("frames", [1, 7])
    def test_matches_direct_construction(self, frames):
        delta = frames * SUBPAGE_BYTES
        cases = [
            (sequential(0, 3000, write_fraction=0.5), lambda d: sequential(d, 3000, write_fraction=0.5)),
            (strided(0, 400, 19), lambda d: strided(d, 400, 19)),
            (
                gather(0, np.arange(0, 2048, 3)),
                lambda d: gather(d, np.arange(0, 2048, 3)),
            ),
        ]
        for base, build in cases:
            shifted = shift_stream(base, delta)
            direct = build(delta)
            assert np.array_equal(shifted.subpages, direct.subpages)
            assert np.array_equal(shifted.weights, direct.weights)
            assert shifted.write_fraction == direct.write_fraction

    def test_unaligned_delta_returns_none(self):
        assert shift_stream(sequential(0, 100), SUBPAGE_BYTES - 8) is None

    def test_zero_delta_returns_the_stream(self):
        stream = sequential(0, 100)
        assert shift_stream(stream, 0) is stream

    def test_negative_shift_below_zero_returns_none(self):
        assert shift_stream(sequential(0, 100), -SUBPAGE_BYTES) is None

    def test_negative_shift_in_range_is_exact(self):
        base = sequential(16 * SUBPAGE_BYTES, 500)
        shifted = shift_stream(base, -4 * SUBPAGE_BYTES)
        direct = sequential(12 * SUBPAGE_BYTES, 500)
        assert np.array_equal(shifted.subpages, direct.subpages)
