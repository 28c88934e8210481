"""Tests for run-length-compressed access streams."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryModelError
from repro.machine.config import SUBPAGE_BYTES, WORD_BYTES
from repro.memory.streams import AccessStream, concat, gather, sequential, strided

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
