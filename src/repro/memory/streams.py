"""Run-length-compressed subpage access streams.

The kernel-scale tier cannot afford one simulator event per word
access (CG touches millions of words per iteration), so kernels
describe their memory behaviour as *streams*: ordered sequences of
subpage touches, each carrying a weight = how many word accesses the
touch represents.  A sequential sweep of a 1 MB array compresses to
8192 touches of weight 16; a data-dependent gather (CG's ``x[col[k]]``)
compresses runs of equal subpages.

Streams feed :class:`repro.memory.analytic_cache.AnalyticCache` (miss
counts) and the phase cost model in :mod:`repro.kernels.costmodel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import MemoryModelError
from repro.machine.config import SUBPAGE_BYTES, WORD_BYTES

__all__ = ["AccessStream", "sequential", "strided", "gather", "concat"]

_WORDS_PER_SUBPAGE = SUBPAGE_BYTES // WORD_BYTES


@dataclass(frozen=True)
class AccessStream:
    """An ordered, compressed sequence of subpage touches.

    ``subpages``
        int64 array of subpage ids, in access order; consecutive
        entries are guaranteed distinct (run-length compressed).
    ``weights``
        int64 array of word accesses represented by each touch.
    ``write_fraction``
        Fraction of the represented word accesses that are writes
        (kept scalar: the paper's kernels read and write whole arrays
        per phase, so per-touch write flags add nothing).

    Both arrays are made read-only on construction: the analytic cache
    memoizes pricing by a content digest cached on the stream, so an
    in-place write after pricing would be served a stale result.
    """

    subpages: np.ndarray
    weights: np.ndarray
    write_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.subpages.shape != self.weights.shape or self.subpages.ndim != 1:
            raise MemoryModelError("subpages and weights must be 1-D and congruent")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise MemoryModelError("write_fraction must be in [0, 1]")
        if self.subpages.size and np.any(self.subpages < 0):
            raise MemoryModelError("negative subpage id in stream")
        self.subpages.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n_touches(self) -> int:
        """Number of compressed subpage touches."""
        return int(self.subpages.size)

    @property
    def n_word_accesses(self) -> int:
        """Word accesses represented."""
        return int(self.weights.sum()) if self.weights.size else 0

    @property
    def n_distinct_subpages(self) -> int:
        """Distinct subpages touched (the footprint)."""
        return int(np.unique(self.subpages).size) if self.subpages.size else 0

    @property
    def footprint_bytes(self) -> int:
        """Bytes of distinct subpages touched."""
        return self.n_distinct_subpages * SUBPAGE_BYTES

    def repeated(self, times: int) -> "AccessStream":
        """The stream iterated ``times`` times back to back."""
        if times < 1:
            raise MemoryModelError("times must be >= 1")
        if times == 1 or self.subpages.size == 0:
            return self
        return _compress(
            np.tile(self.subpages, times),
            np.tile(self.weights, times),
            self.write_fraction,
        )

    def mapped(self, alloc_subpages: int) -> np.ndarray:
        """Allocation-unit ids of each touch (e.g. 16 KB pages:
        ``alloc_subpages = 128``), run-length compressed."""
        if alloc_subpages <= 0:
            raise MemoryModelError("alloc_subpages must be positive")
        units = self.subpages // alloc_subpages
        if units.size == 0:
            return units
        keep = np.empty(units.size, dtype=bool)
        keep[0] = True
        np.not_equal(units[1:], units[:-1], out=keep[1:])
        return units[keep]


def _compress(subpages: np.ndarray, weights: np.ndarray, write_fraction: float) -> AccessStream:
    """Merge consecutive equal subpage ids, summing weights."""
    subpages = np.ascontiguousarray(subpages, dtype=np.int64)
    weights = np.ascontiguousarray(weights, dtype=np.int64)
    if subpages.size == 0:
        return AccessStream(subpages, weights, write_fraction)
    boundary = np.empty(subpages.size, dtype=bool)
    boundary[0] = True
    np.not_equal(subpages[1:], subpages[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    out_ids = subpages[starts]
    out_weights = np.add.reduceat(weights, starts)
    return AccessStream(out_ids, out_weights, write_fraction)


def sequential(base_addr: int, n_words: int, *, write_fraction: float = 0.0) -> AccessStream:
    """A sequential sweep of ``n_words`` 64-bit words from ``base_addr``."""
    if n_words < 0:
        raise MemoryModelError("n_words must be non-negative")
    if n_words == 0:
        empty = np.empty(0, dtype=np.int64)
        return AccessStream(empty, empty.copy(), write_fraction)
    first_word = base_addr // WORD_BYTES
    words = np.arange(first_word, first_word + n_words, dtype=np.int64)
    subpages = words // _WORDS_PER_SUBPAGE
    return _compress(subpages, np.ones(n_words, dtype=np.int64), write_fraction)


def strided(
    base_addr: int,
    n_accesses: int,
    stride_words: int,
    *,
    write_fraction: float = 0.0,
) -> AccessStream:
    """``n_accesses`` word accesses at a fixed word stride (used by the
    latency experiments to force block/page-allocating patterns)."""
    if n_accesses < 0 or stride_words == 0:
        raise MemoryModelError("need non-negative count and nonzero stride")
    first_word = base_addr // WORD_BYTES
    words = first_word + stride_words * np.arange(n_accesses, dtype=np.int64)
    if words.size and words.min() < 0:
        raise MemoryModelError("strided access walked below address zero")
    subpages = words // _WORDS_PER_SUBPAGE
    return _compress(subpages, np.ones(n_accesses, dtype=np.int64), write_fraction)


def gather(
    base_addr: int,
    word_indices: np.ndarray | Sequence[int],
    *,
    write_fraction: float = 0.0,
) -> AccessStream:
    """Indexed accesses ``array[word_indices[k]]`` in order — the
    data-dependent pattern of CG's ``x[col_index]`` and IS's key
    scatter."""
    idx = np.ascontiguousarray(word_indices, dtype=np.int64)
    if idx.ndim != 1:
        raise MemoryModelError("word_indices must be 1-D")
    if idx.size and idx.min() < 0:
        raise MemoryModelError("negative gather index")
    first_word = base_addr // WORD_BYTES
    subpages = (first_word + idx) // _WORDS_PER_SUBPAGE
    return _compress(subpages, np.ones(idx.size, dtype=np.int64), write_fraction)


def concat(streams: Sequence[AccessStream]) -> AccessStream:
    """Concatenate streams in phase order (weighted-average write
    fraction)."""
    streams = [s for s in streams if s.n_touches]
    if not streams:
        empty = np.empty(0, dtype=np.int64)
        return AccessStream(empty, empty.copy(), 0.0)
    ids = np.concatenate([s.subpages for s in streams])
    weights = np.concatenate([s.weights for s in streams])
    total_words = sum(s.n_word_accesses for s in streams)
    wf = (
        sum(s.write_fraction * s.n_word_accesses for s in streams) / total_words
        if total_words
        else 0.0
    )
    return _compress(ids, weights, wf)
