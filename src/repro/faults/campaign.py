"""Resilience campaigns: fault rate x processor sweeps.

A campaign re-runs the paper's figure-3 lock workload (the most
ring-sensitive simulated experiment in the suite) across a grid of
processor counts and per-packet corruption rates, reporting how the
machine's time, retry traffic and timeout incidence degrade.  Points
run through a :class:`~repro.experiments.sweep.SweepRunner`, so
``--jobs N`` fans the grid across worker processes and the result cache
(keyed on the :attr:`~repro.faults.FaultPlan.cache_token`) makes
re-renders free.

All output paths are deterministic: the summary JSON is serialized with
sorted keys and fixed separators, so two runs of the same campaign —
whatever the job count — produce byte-identical artifacts (pinned by
``tests/faults/test_determinism.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import cycle
from pathlib import Path
from typing import Any, Sequence

from repro.experiments.base import ExperimentResult, Plan, Point, fill_params, plan_of, run_plan
from repro.experiments.locks import measure_lock
from repro.experiments.sweep import SweepRunner
from repro.faults.plan import FaultPlan
from repro.obs import ObsSpec
from repro.obs.export import point_slug, write_chrome_trace

__all__ = [
    "CAMPAIGN_DEFAULT", "CampaignResult", "campaign_assemble", "campaign_plan", "run_campaign",
]

#: Default per-packet corruption rates swept by ``ksr-faults campaign``.
DEFAULT_RATES = (0.0, 1e-5, 1e-4, 1e-3)

#: A default campaign's sizes, for ``ksr-faults`` and :func:`run_campaign`.
CAMPAIGN_DEFAULT: dict[str, Any] = {"proc_counts": [8, 16, 32], "ops": 30, "seed": 303}


@dataclass
class CampaignResult:
    """One campaign's table plus the per-point fault tallies."""

    result: ExperimentResult
    #: ``(n_procs, fault_rate) -> {"seconds": ..., "retries": ..., ...}``
    points: dict[tuple[int, float], dict[str, float]] = field(default_factory=dict)

    def doc(self) -> dict[str, Any]:
        """The table plus every point's tallies as a JSON-safe document."""
        points = [
            {"n_procs": p, "fault_rate": r, **stats} for (p, r), stats in sorted(self.points.items())
        ]
        return {**self.result.doc(), "points": points}

    def to_json(self) -> str:
        """Deterministic JSON document (sorted keys, fixed separators)."""
        doc = self.doc()
        doc["experiment"] = doc.pop("experiment_id")
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def render(self) -> str:
        """Plain-text report (the table plus notes)."""
        return self.result.render()


def campaign_plan(
    proc_counts: list[int], fault_rates: Sequence[float] = DEFAULT_RATES, *, ops: int, seed: int,
    obs: ObsSpec | None = None,
) -> Plan:
    """The campaign grid as independent, cacheable :func:`measure_lock` calls.

    The writers-only rw lock, processors outer and corruption rates
    inner; the F1 experiment
    (:func:`repro.experiments.degraded.run_degraded_locks`) maps the
    same grid.
    """
    calls = [
        dict(kind="rw", n_procs=p, read_fraction=0.0, ops=ops, seed=seed,
             plan=FaultPlan(corruption_rate=r))
        for p in proc_counts
        for r in fault_rates
    ]
    return plan_of(measure_lock, calls, obs)


def campaign_assemble(params: dict[str, Any], values: list[Point]) -> CampaignResult:
    """The campaign's table and tallies from the values of ``campaign_plan(**params)``."""
    proc_counts = params["proc_counts"]
    fault_rates = params.get("fault_rates", DEFAULT_RATES)
    result = ExperimentResult(
        experiment_id="FAULTS",
        title=f"Lock workload resilience, {params['ops']} ops/processor",
        headers=[
            "P", "fault rate", "seconds", "slowdown",
            "retries", "timeouts", "corrupted", "ring tx",
        ],
    )
    campaign = CampaignResult(result=result)
    it = iter(values)
    for p in proc_counts:
        baseline = None
        for r in fault_rates:
            point = next(it)
            ring_tx = (
                point.capture.totals["ring_transactions"]
                if point.capture is not None
                else 0.0
            )
            if baseline is None:
                baseline = point.seconds
            slowdown = point.seconds / baseline if baseline else 1.0
            stats = {
                "seconds": point.seconds,
                "slowdown": slowdown,
                "retries": point.fault("retries"),
                "timeouts": point.fault("timeouts"),
                "corrupted": point.fault("corrupted_packets"),
                "ring_tx": ring_tx,
            }
            campaign.points[(p, r)] = stats
            result.add_row([p, r, *stats.values()])
            result.add_series_point(f"p={r:g}" if r else "clean", p, point.seconds)
    worst_rate = max(fault_rates)
    if worst_rate > 0 and proc_counts:
        p_last = proc_counts[-1]
        s = campaign.points[(p_last, worst_rate)]
        result.notes.append(
            f"at P={p_last}, rate {worst_rate:g}: slowdown {s['slowdown']:.3f}x, "
            f"{int(s['retries'])} retries, {int(s['timeouts'])} timeouts"
        )
    return campaign


def run_campaign(
    proc_counts: list[int] | None = None, fault_rates: list[float] | None = None, *,
    ops: int | None = None, seed: int | None = None, runner: SweepRunner | None = None,
    obs: ObsSpec | None = None, trace_dir: str | None = None,
) -> CampaignResult:
    """Sweep the lock workload over processors x corruption rates.

    Unset sizes take :data:`CAMPAIGN_DEFAULT`'s.  ``trace_dir`` (implies
    ``obs``) writes one Chrome trace per point without changing the table.
    """
    params = fill_params(
        CAMPAIGN_DEFAULT, trace_dir=trace_dir, proc_counts=proc_counts, fault_rates=fault_rates,
        ops=ops, seed=seed, obs=obs,
    )
    plan = campaign_plan(**params)
    values = run_plan(plan, runner)
    if trace_dir is not None:
        # The fault rate lives inside the (non-scalar) plan, so the
        # slug alone would collide across rates.
        rates = cycle(params.get("fault_rates", DEFAULT_RATES))
        for r, (_, call), point in zip(rates, plan, values):
            if point.capture is not None:
                rate_slug = str(r).replace(".", "p").replace("-", "m")
                name = f"faults_rate-{rate_slug}_{point_slug(call)}.trace.json"
                write_chrome_trace(Path(trace_dir) / name, [point.capture])
    return campaign_assemble(params, values)
