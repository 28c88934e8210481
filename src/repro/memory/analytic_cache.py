"""Vectorized cache model for kernel-scale access streams.

This is a StatCache-style probabilistic model (Berg & Hagersten,
"StatCache: a probabilistic approach to efficient and accurate data
locality analysis") adapted to the KSR's two defining cache policies:

* **random replacement** — the model's core assumption is the machine's
  actual policy rather than an approximation of LRU;
* **allocation-unit frames** — KSR caches reserve whole 2 KB blocks /
  16 KB pages and only ever evict whole frames; individual lines are
  never displaced.  Capacity behaviour is therefore entirely a
  *frame-level* phenomenon, and sparse access patterns can thrash a
  32 MB cache with only 2048 resident subpages — the inefficiency the
  paper warns about for "algorithms that display less spatial
  locality".

Model
-----
Let ``F`` be the number of frames and ``S`` the number of sets.  A
frame miss needs an eviction only if the victim set is full; with ``W``
distinct frames in play the set occupancy is ~Poisson(``W/S``), giving
an eviction probability ``p_evict`` (1 when ``W >= F``).  A resident
frame then survives one frame miss with probability
``1 - p_evict / F``, and the frame-level miss ratio solves the
StatCache fixpoint

    m_f = (cold_f + sum_i 1 - (1 - p_evict/F)^(m_f * Tf_i)) / N_f

over the frame-touch stream's time distances ``Tf_i``.  A *line*
access hits iff the line was touched before and its frame survived the
interval, so the line-level miss probability reuses ``m_f`` scaled by
the stream's frame-touch rate.

Accuracy is validated against the exact event-level caches of
:mod:`repro.memory.cache_sets` in ``tests/memory/test_analytic_cache.py``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from hashlib import blake2b

import numpy as np

from repro.errors import MemoryModelError
from repro.machine.config import CacheConfig, SUBPAGE_BYTES
from repro.memory.streams import AccessStream, stable_order

__all__ = [
    "CacheModelResult",
    "AnalyticCache",
    "time_distances",
    "fixpoint_miss_ratio",
    "set_full_probability",
    "stream_fingerprint",
]

#: Attribute name the cached fingerprint is pinned under (the stream
#: dataclass is frozen; ``object.__setattr__`` bypasses that for this
#: derived, content-determined value).
_FP_ATTR = "_stream_fingerprint"


def time_distances(ids: np.ndarray, iterations: int = 1) -> tuple[np.ndarray, int]:
    """Per-access distance (in accesses) to the previous touch of the
    same id; cold (first) touches get distance -1.

    Returns ``(distances, n_cold)``.  Vectorized: group positions by id
    via a stable order (:func:`~repro.memory.streams.stable_order`),
    difference within groups.

    With ``iterations = k > 1`` the distances are those of ``ids``
    played ``k`` times back to back and run-length compressed (what
    :meth:`AccessStream.repeated` builds), derived from the one sort of
    one copy.  Copy 1 keeps its own distances.  In every later copy a
    repeat touch keeps its in-copy distance, and an id's first touch
    reaches back to its last touch in the previous copy, ``period -
    last + i`` accesses earlier.  The period is the copy length, or one
    less when the first id equals the last: compression then fuses each
    copy's first touch into the previous copy's last, so the k-fold
    stream is ``ids[0]`` followed by ``ids[1:]`` k times.
    """
    ids = np.ascontiguousarray(ids)
    if iterations > 1 and ids.size > 1:
        runs = ids[1:] != ids[:-1]
        if not runs.all():
            ids = ids[np.concatenate(([True], runs))]
    n = ids.size
    if n == 0:
        return np.empty(0, dtype=np.int64), 0
    order = stable_order(ids)  # groups ids, positions ascending
    sorted_ids = ids[order]
    # group starts in sorted order: the first touch of each id
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
    lasts = np.append(firsts[1:], n) - 1  # group ends in sorted order
    wrap = period - order[lasts] + first_pos
    if fused:  # ids[0]'s first touch is fused into copy 1's last
        keep = first_pos > 0
        first_pos, wrap = first_pos[keep], wrap[keep]
    distances[n - fused + first_pos] = wrap
    distances[n:].reshape(iterations - 1, period)[1:] = distances[n:n + period]
    return distances, firsts.size


def set_full_probability(n_distinct: int, n_sets: int, ways: int, n_frames: int) -> float:
    """Probability that a frame allocation finds its set full.

    Distinct frames spread ~uniformly over sets; occupancy of one set
    is approximated as Poisson(``n_distinct / n_sets``) truncated by
    associativity.  Once the working set reaches the frame capacity the
    probability saturates at 1.
    """
    if n_distinct <= 0:
        return 0.0
    if n_distinct >= n_frames:
        return 1.0
    lam = n_distinct / n_sets
    # P(X >= ways) for X ~ Poisson(lam)
    term = math.exp(-lam)
    cdf = term
    for k in range(1, ways):
        term *= lam / k
        cdf += term
    return max(0.0, min(1.0, 1.0 - cdf))


def fixpoint_miss_ratio(
    distances: np.ndarray,
    n_cold: int,
    n_lines: int,
    *,
    evict_prob: float = 1.0,
    tol: float = 1e-6,
    max_iter: int = 200,
) -> tuple[float, np.ndarray]:
    """Solve the StatCache fixpoint for a random-replacement store of
    ``n_lines`` entries where each miss evicts a random resident entry
    with probability ``evict_prob``.

    Returns ``(miss_ratio, p_miss_per_access)``; cold touches have
    probability 1.
    """
    n = distances.size
    if n == 0:
        return 0.0, np.empty(0)
    if n_lines <= 0:
        raise MemoryModelError("cache must have at least one line")
    warm = distances >= 0
    t_warm = distances[warm].astype(np.float64)
    if evict_prob <= 0.0:
        p_miss = np.ones(n)
        p_miss[warm] = 0.0
        return n_cold / n, p_miss
    log_survive = math.log1p(-evict_prob / n_lines)
    m = n_cold / n  # start from compulsory misses only
    for _ in range(max_iter):
        p_miss_warm = -np.expm1(m * t_warm * log_survive)
        new_m = (n_cold + float(p_miss_warm.sum())) / n
        if abs(new_m - m) < tol:
            m = new_m
            break
        m = new_m
    p_miss = np.ones(n)
    p_miss[warm] = -np.expm1(m * t_warm * log_survive)
    return m, p_miss


@dataclass(frozen=True)
class CacheModelResult:
    """Expected behaviour of one stream against one cache level."""

    n_touches: int
    n_word_accesses: int
    expected_line_misses: float
    cold_line_misses: int
    expected_frame_allocs: float
    miss_ratio: float

    @property
    def expected_line_hits(self) -> float:
        """Touches that found their line present."""
        return self.n_touches - self.expected_line_misses

    @property
    def expected_word_hits(self) -> float:
        """Word accesses not requiring a fill (intra-touch repeats are
        guaranteed hits)."""
        return self.n_word_accesses - self.expected_line_misses


def stream_fingerprint(stream: AccessStream) -> tuple[bytes, int]:
    """``(relative-content digest, first subpage id)`` of a stream.

    The digest covers the subpage ids *relative to the first*, the
    weights and the write fraction — everything
    :meth:`AnalyticCache.simulate` reads except the absolute position,
    which re-enters the memo key only modulo the cache's allocation
    unit.  Computed once per stream object, then cached on it (the
    stream's arrays are read-only, so the digest cannot go stale).
    """
    cached = getattr(stream, _FP_ATTR, None)
    if cached is not None:
        return cached
    ids = stream.subpages
    first = int(ids[0]) if ids.size else 0
    h = blake2b(digest_size=16)
    h.update(np.ascontiguousarray(ids - first).tobytes())
    h.update(np.ascontiguousarray(stream.weights).tobytes())
    h.update(struct.pack("<d", stream.write_fraction))
    fingerprint = (h.digest(), first)
    object.__setattr__(stream, _FP_ATTR, fingerprint)
    return fingerprint


class AnalyticCache:
    """The model bound to one cache geometry.

    Streams are subpage-granular; for the sub-cache (64 B sub-blocks,
    half a subpage) a reported line miss corresponds to two sub-block
    fills — the cost model in :mod:`repro.kernels.costmodel` applies
    that factor, this class reports subpage-granular misses.

    Results are memoized per instance by stream content.  The model
    reads subpage ids only through equality patterns (reuse distances,
    run boundaries) and frame ids ``subpages // alloc_subpages``, so
    translating a stream by whole allocation units changes neither: the
    key is the stream's :func:`stream_fingerprint` digest, its first id
    modulo ``alloc_subpages``, and the iteration count.  Processor
    ``p``'s stream, a frame-aligned shift of processor 0's, therefore
    prices once for all ``p``, and a hit returns the very result object
    the computed call produced.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.alloc_subpages = max(1, config.alloc_bytes // SUBPAGE_BYTES)
        self.n_frames = config.n_frames
        self.n_sets = config.n_sets
        self.ways = config.ways
        self._memo: dict[tuple[bytes, int, int], CacheModelResult] = {}
        #: Memo telemetry (read by benchmarks and tests).
        self.memo_hits = 0
        self.memo_misses = 0

    def simulate(self, stream: AccessStream, *, iterations: int = 1) -> CacheModelResult:
        """Expected misses of ``stream`` (optionally iterated to reach a
        warm steady state; results describe the *last* iteration)."""
        if iterations < 1:
            raise MemoryModelError("iterations must be >= 1")
        if not stream.subpages.size:
            return CacheModelResult(0, 0, 0.0, 0, 0.0, 0.0)
        digest, first = stream_fingerprint(stream)
        key = (digest, first % self.alloc_subpages, iterations)
        result = self._memo.get(key)
        if result is not None:
            self.memo_hits += 1
            return result
        result = self._price(stream, iterations)
        self._memo[key] = result
        self.memo_misses += 1
        return result

    def _price(self, stream: AccessStream, iterations: int) -> CacheModelResult:
        """The model proper, over the ``iterations``-fold stream."""
        # --- frame level: the only level at which capacity acts -------
        f_dist, f_cold = time_distances(stream.mapped(self.alloc_subpages), iterations)
        # every distinct frame has exactly one cold touch
        p_evict = set_full_probability(f_cold, self.n_sets, self.ways, self.n_frames)
        m_f, p_frame_miss = fixpoint_miss_ratio(
            f_dist, f_cold, self.n_frames, evict_prob=p_evict
        )
        # --- line level: hit iff seen before and frame survived -------
        distances, _ = time_distances(stream.subpages, iterations)
        frame_rate = f_dist.size / distances.size
        # Only the last iteration is reported, so only its touches are
        # priced.  In a fused k-fold stream (first id equal to the last)
        # this slice starts k - 2 touches into the last copy.
        touches = stream.n_touches
        last = distances[(iterations - 1) * touches:]
        warm = last >= 0
        log_survive = math.log1p(-p_evict / self.n_frames) if p_evict > 0 else 0.0
        p_miss = np.ones(last.size)
        if log_survive != 0.0:
            exponent = m_f * frame_rate * last[warm].astype(np.float64)
            p_miss[warm] = -np.expm1(exponent * log_survive)
        else:
            p_miss[warm] = 0.0
        misses = float(p_miss.sum())
        frame_allocs = (f_cold + float(p_frame_miss[f_dist >= 0].sum())) / iterations
        return CacheModelResult(
            n_touches=touches,
            n_word_accesses=stream.n_word_accesses,
            expected_line_misses=misses,
            cold_line_misses=last.size - int(np.count_nonzero(warm)),
            expected_frame_allocs=frame_allocs,
            miss_ratio=misses / touches,
        )
