"""The serving layer's sweep runner and its backends.

:class:`InlineBackend` and :class:`ProcessPoolBackend` live with the
runner in :mod:`repro.experiments.sweep` and are re-exported here; the
fleet's backend is :class:`~repro.service.fleet.coordinator.FleetBackend`.
:class:`BackendSweepRunner` runs a job on a backend its caller owns and
harvests the ``.capture`` every traced point result carries (an
:class:`~repro.obs.ObsCapture`), so service responses can carry
observability summaries.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.experiments.sweep import (
    Backend,
    InlineBackend,
    ProcessPoolBackend,
    ResultCache,
    SweepRunner,
)
from repro.obs.probes import ObsCapture

__all__ = [
    "Backend",
    "BackendSweepRunner",
    "InlineBackend",
    "ProcessPoolBackend",
    "harvest_captures",
]


def harvest_captures(values: Sequence[Any]) -> list[ObsCapture]:
    """Every set ``.capture`` of a batch of point results, in order.

    Point results (:class:`~repro.experiments.base.Point`,
    :class:`~repro.experiments.latency.LatencyMeasurement`) carry their
    capture as an attribute; values without one are skipped.  Order
    follows the result order, so equal runs harvest equal lists.
    """
    return [
        capture
        for capture in (getattr(value, "capture", None) for value in values)
        if capture is not None
    ]


class BackendSweepRunner(SweepRunner):
    """A :class:`SweepRunner` on a shared backend that harvests captures.

    Everything but capture harvesting is inherited; the backend is the
    caller's to close.  Every :class:`ObsCapture` flowing through
    ``map`` (cache hits included) lands in :attr:`captures` —
    experiment assemblers consume the point values, so this is the one
    place the serving layer can still see them for response summaries.
    """

    def __init__(self, backend: Backend, cache: ResultCache | None = None):
        super().__init__(cache=cache)
        self.backend = backend
        self.captures: list[ObsCapture] = []

    def map(self, func, calls, *, on_result=None):  # type: ignore[override]
        """SweepRunner.map plus ObsCapture harvesting into ``captures``."""
        results = super().map(func, calls, on_result=on_result)
        self.captures.extend(harvest_captures(results))
        return results
