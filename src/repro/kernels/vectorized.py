"""Translated stream construction for per-processor kernel phases.

The NAS kernel models give every processor its own stream, and most of
those streams are processor 0's moved up the address space.
:func:`shift_stream` builds them by translation: any stream translated
by a whole number of subpages equals the stream rebuilt at the shifted
base (every builder in :mod:`repro.memory.streams` maps words to
subpages by integer division, so a subpage-aligned shift moves all ids
uniformly and preserves every run boundary).  Kernels use it to derive
per-processor streams from processor 0's without re-running
``arange``/``_compress``.

It is the construction-side dual of the pricing memo in
:class:`repro.memory.analytic_cache.AnalyticCache`, which keys on
content relative to the first id: a frame-aligned shift prices from the
memo.  Shifted construction builds the very arrays direct construction
builds; ``tests/kernels/test_vectorized.py`` pins that equality and the
memo's.
"""

from __future__ import annotations

import numpy as np

from repro.machine.config import SUBPAGE_BYTES
from repro.memory.streams import AccessStream

__all__ = ["shift_stream"]


def shift_stream(stream: AccessStream, delta_bytes: int) -> AccessStream | None:
    """The stream translated ``delta_bytes`` up the address space.

    Exact for subpage-aligned deltas: every stream builder maps word
    addresses to subpage ids by integer division, so shifting the base
    by ``k * SUBPAGE_BYTES`` shifts every id by exactly ``k`` — run
    boundaries, weights and write fraction are untouched.  Returns
    ``None`` for unaligned deltas (the caller falls back to direct
    construction) and for negative results (ids must stay >= 0).
    """
    if delta_bytes % SUBPAGE_BYTES:
        return None
    delta_subpages = delta_bytes // SUBPAGE_BYTES
    if delta_subpages == 0:
        return stream
    if not stream.subpages.size:
        return stream
    ids = stream.subpages + np.int64(delta_subpages)
    if delta_subpages < 0 and int(ids.min()) < 0:
        return None
    return AccessStream(ids, stream.weights, stream.write_fraction)
