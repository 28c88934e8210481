"""Batching policy: how requests become bounded fan-outs.

Two mechanisms, both deliberately simple enough to reason about under
concurrency:

* **Cost estimation** — :func:`estimate_points` prices a job spec in
  the distinct points of its plan *before* running it; admission
  control rejects requests whose price exceeds the server's per-job
  bound instead of discovering mid-run that it accepted a monster.
* **Coalescing** — :class:`JobTable` maps a spec's canonical form to
  its in-flight job, so N identical concurrent submissions cost one
  execution; every waiter gets the same result object.  Point purity
  makes this safe: identical specs *must* produce identical payloads.

An accepted job's fan-out is bounded where it shares workers: the
process pool takes its points in slices
(:data:`repro.experiments.sweep.POOL_SLICE`).
"""

from __future__ import annotations

import threading
from typing import Any

from repro.experiments.sweep import point_key
from repro.service.jobs import JobSpec

__all__ = ["estimate_points", "JobTable"]


def estimate_points(spec: JobSpec) -> int:
    """Points this job computes (admission price): its plan's distinct ``point_key``s."""
    return len({point_key(func, kwargs) for func, kwargs in spec.plan()})


class JobTable:
    """Coalesces identical in-flight specs onto one job object.

    ``claim`` either registers ``job`` as the canonical execution for
    its spec (returns ``None``) or returns the already-in-flight job to
    piggyback on.  ``release`` must be called when the canonical job
    settles, after which the spec may run fresh again (results persist
    in the cache, so a re-run is cheap anyway).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: dict[str, Any] = {}
        self.coalesced = 0

    def claim(self, canonical: str, job: Any) -> Any | None:
        """Register ``job`` for ``canonical``, or return the in-flight one."""
        with self._lock:
            existing = self._inflight.get(canonical)
            if existing is not None:
                self.coalesced += 1
                return existing
            self._inflight[canonical] = job
            return None

    def release(self, canonical: str) -> None:
        """Drop the claim; the next identical spec runs fresh."""
        with self._lock:
            self._inflight.pop(canonical, None)

    def inflight_count(self) -> int:
        """How many distinct specs are currently claimed."""
        with self._lock:
            return len(self._inflight)
