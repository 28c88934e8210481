"""Tests for run-length-compressed access streams."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryModelError
from repro.machine.config import SUBPAGE_BYTES, WORD_BYTES
from repro.memory.streams import (
    AccessStream, concat, gather, sequential, stable_order, strided,
)

WORDS_PER_SUBPAGE = SUBPAGE_BYTES // WORD_BYTES


class TestSequential:
    def test_compression_ratio(self):
        s = sequential(0, 1024)  # 1024 words = 64 subpages
        assert s.n_touches == 64
        assert s.n_word_accesses == 1024
        assert np.all(s.weights == WORDS_PER_SUBPAGE)

    def test_unaligned_base(self):
        s = sequential(SUBPAGE_BYTES - WORD_BYTES, 2)  # straddles a boundary
        assert s.n_touches == 2
        assert list(s.weights) == [1, 1]

    def test_empty(self):
        s = sequential(0, 0)
        assert s.n_touches == 0 and s.n_word_accesses == 0

    def test_negative_rejected(self):
        with pytest.raises(MemoryModelError):
            sequential(0, -1)

    def test_footprint(self):
        s = sequential(0, 1024)
        assert s.footprint_bytes == 64 * SUBPAGE_BYTES
        assert s.n_distinct_subpages == 64


class TestStrided:
    def test_subpage_stride_no_compression(self):
        s = strided(0, 100, WORDS_PER_SUBPAGE)
        assert s.n_touches == 100
        assert np.all(s.weights == 1)

    def test_small_stride_compresses(self):
        s = strided(0, 32, 2)  # every other word: 8 touches per subpage
        assert s.n_touches == 4
        assert np.all(s.weights == 8)

    def test_zero_stride_rejected(self):
        with pytest.raises(MemoryModelError):
            strided(0, 10, 0)

    def test_negative_walk_rejected(self):
        with pytest.raises(MemoryModelError):
            strided(0, 10, -5)


class TestGather:
    def test_run_compression(self):
        s = gather(0, [0, 1, 2, 100, 100, 0])
        # words 0,1,2 share subpage 0; 100 is subpage 6; then back to 0
        assert list(s.subpages) == [0, 6, 0]
        assert list(s.weights) == [3, 2, 1]

    def test_negative_index_rejected(self):
        with pytest.raises(MemoryModelError):
            gather(0, [-1])

    def test_2d_rejected(self):
        with pytest.raises(MemoryModelError):
            gather(0, np.zeros((2, 2), dtype=int))


class TestConcatAndRepeat:
    def test_concat_merges_boundary_runs(self):
        a = sequential(0, WORDS_PER_SUBPAGE)  # subpage 0
        b = sequential(0, WORDS_PER_SUBPAGE)  # subpage 0 again
        s = concat([a, b])
        assert s.n_touches == 1
        assert s.n_word_accesses == 2 * WORDS_PER_SUBPAGE

    def test_concat_write_fraction_weighted(self):
        a = sequential(0, 100, write_fraction=1.0)
        b = sequential(100 * WORD_BYTES, 300, write_fraction=0.0)
        assert concat([a, b]).write_fraction == pytest.approx(0.25)

    def test_concat_empty(self):
        assert concat([]).n_touches == 0

    def test_repeated(self):
        s = sequential(0, 256).repeated(3)
        assert s.n_word_accesses == 768

    def test_repeated_one_is_identity(self):
        s = sequential(0, 256)
        assert s.repeated(1) is s

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_repeat_preserves_totals(self, times, n_words):
        s = sequential(0, n_words)
        r = s.repeated(times)
        assert r.n_word_accesses == times * n_words
        assert r.n_distinct_subpages == s.n_distinct_subpages


class TestValidation:
    def test_mismatched_arrays_rejected(self):
        with pytest.raises(MemoryModelError):
            AccessStream(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64))

    def test_bad_write_fraction_rejected(self):
        ids = np.zeros(1, dtype=np.int64)
        with pytest.raises(MemoryModelError):
            AccessStream(ids, ids.copy(), write_fraction=1.5)

    def test_mapped_pages(self):
        s = sequential(0, 4096)  # 256 subpages = 2 pages
        pages = s.mapped(128)
        assert list(pages) == [0, 1]

    def test_arrays_are_read_only(self):
        """Pricing is memoized by a digest cached on the stream, so the
        arrays must not change after construction."""
        s = sequential(0, 64)
        with pytest.raises(ValueError):
            s.subpages[0] = 7
        with pytest.raises(ValueError):
            s.weights[0] = 7
        ids = np.arange(4, dtype=np.int64)
        direct = AccessStream(ids, np.ones(4, dtype=np.int64))
        with pytest.raises(ValueError):
            direct.subpages[1] = 0


def _word_level(word_addresses: np.ndarray, write_fraction: float = 0.0) -> AccessStream:
    """The word-level reference: one subpage id and weight-1 per word,
    merged by ``np.add.reduceat`` (what the builders did before they
    took run lengths or closed forms)."""
    subpages = np.ascontiguousarray(word_addresses // WORDS_PER_SUBPAGE, dtype=np.int64)
    weights = np.ones(subpages.size, dtype=np.int64)
    if subpages.size == 0:
        return AccessStream(subpages, weights, write_fraction)
    boundary = np.concatenate(([True], subpages[1:] != subpages[:-1]))
    starts = np.flatnonzero(boundary)
    return AccessStream(subpages[starts], np.add.reduceat(weights, starts), write_fraction)


def _assert_same_stream(got: AccessStream, want: AccessStream) -> None:
    for field in ("subpages", "weights"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), field
    assert got.write_fraction == want.write_fraction


class TestBuildersMatchWordLevel:
    """``sequential`` (closed form), ``strided`` and ``gather`` (run
    lengths) return the very bytes of the word-level reference."""

    @pytest.mark.parametrize("base_words", [0, 1, 5, 15, 16, 17, 1000])
    @pytest.mark.parametrize("n_words", [0, 1, 2, 3, 11, 15, 16, 17, 33, 500])
    def test_sequential(self, base_words, n_words):
        first = base_words
        got = sequential(base_words * WORD_BYTES, n_words, write_fraction=0.5)
        want = _word_level(np.arange(first, first + n_words, dtype=np.int64), 0.5)
        _assert_same_stream(got, want)

    def test_sequential_byte_unaligned_base(self):
        got = sequential(3 * WORD_BYTES + 5, 40)
        _assert_same_stream(got, _word_level(np.arange(3, 43, dtype=np.int64)))

    @given(
        base_words=st.integers(min_value=0, max_value=5000),
        n_accesses=st.integers(min_value=0, max_value=300),
        stride=st.integers(min_value=-20, max_value=40).filter(bool),
    )
    @settings(max_examples=60, deadline=None)
    def test_strided(self, base_words, n_accesses, stride):
        if stride < 0:  # start high enough that the walk stays above zero
            base_words += -stride * n_accesses
        words = base_words + stride * np.arange(n_accesses, dtype=np.int64)
        got = strided(base_words * WORD_BYTES, n_accesses, stride)
        _assert_same_stream(got, _word_level(words))

    @given(
        base_words=st.integers(min_value=0, max_value=100),
        indices=st.lists(st.integers(min_value=0, max_value=200), max_size=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_gather(self, base_words, indices):
        idx = np.array(indices, dtype=np.int64)
        got = gather(base_words * WORD_BYTES, idx, write_fraction=0.25)
        _assert_same_stream(got, _word_level(base_words + idx, 0.25))


class TestStableOrder:
    @given(
        keys=st.lists(st.integers(min_value=-50, max_value=50), max_size=300),
        offset=st.sampled_from([0, 1 << 40, -(1 << 40)]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_stable_argsort(self, keys, offset):
        arr = np.array(keys, dtype=np.int64) + offset
        got, want = stable_order(arr), np.argsort(arr, kind="stable")
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_int64_overflowing_range_falls_back(self):
        keys = np.array([1 << 62, -(1 << 62), 7, 1 << 62, -(1 << 62), 7, 0])
        assert (int(keys.max()) - int(keys.min()) + 1) * keys.size > np.iinfo(np.int64).max
        want = np.argsort(keys, kind="stable")
        assert stable_order(keys).tobytes() == want.tobytes()

    def test_fallback_at_the_overflow_boundary(self):
        """``(2**62 + 1) * 2`` just exceeds int64: the composite of the
        larger key would wrap to a negative number."""
        keys = np.array([1 << 62, 0], dtype=np.int64)
        assert list(stable_order(keys)) == [1, 0]

    def test_leaves_keys_untouched(self):
        keys = np.array([3, 1, 2, 1], dtype=np.int64)
        stable_order(keys)
        assert list(keys) == [3, 1, 2, 1]
