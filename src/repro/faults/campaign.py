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
from pathlib import Path
from typing import Sequence

from repro.experiments.base import ExperimentResult, Plan, plan_of, run_plan, trace_obs
from repro.experiments.locks import measure_lock
from repro.experiments.sweep import SweepRunner
from repro.faults.plan import FaultPlan
from repro.obs import ObsSpec
from repro.obs.export import point_slug, write_chrome_trace

__all__ = ["CampaignResult", "campaign_plan", "run_campaign"]

#: Default per-packet corruption rates swept by ``ksr-faults campaign``.
DEFAULT_RATES = (0.0, 1e-5, 1e-4, 1e-3)


@dataclass
class CampaignResult:
    """One campaign's table plus the per-point fault tallies."""

    result: ExperimentResult
    #: ``(n_procs, fault_rate) -> {"seconds": ..., "retries": ..., ...}``
    points: dict[tuple[int, float], dict[str, float]] = field(default_factory=dict)

    def to_json(self) -> str:
        """Deterministic JSON document (sorted keys, fixed separators)."""
        doc = {
            "experiment": self.result.experiment_id,
            "title": self.result.title,
            "headers": self.result.headers,
            "rows": self.result.rows,
            "notes": self.result.notes,
            "points": [
                {"n_procs": p, "fault_rate": r, **stats}
                for (p, r), stats in sorted(self.points.items())
            ],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def render(self) -> str:
        """Plain-text report (the table plus notes)."""
        return self.result.render()


def campaign_plan(
    proc_counts: list[int], fault_rates: Sequence[float], *, ops: int, seed: int,
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


def run_campaign(
    proc_counts: list[int] | None = None,
    fault_rates: list[float] | None = None,
    *,
    ops: int = 30,
    seed: int = 303,
    runner: SweepRunner | None = None,
    obs: ObsSpec | None = None,
    trace_dir: str | None = None,
) -> CampaignResult:
    """Sweep the lock workload over processors x corruption rates.

    ``trace_dir`` (implies a default ``obs``) writes one Chrome trace
    per point without changing the table.
    """
    if proc_counts is None:
        proc_counts = [8, 16, 32]
    if fault_rates is None:
        fault_rates = list(DEFAULT_RATES)
    plan = campaign_plan(
        proc_counts, fault_rates, ops=ops, seed=seed, obs=trace_obs(obs, trace_dir)
    )
    result = ExperimentResult(
        experiment_id="FAULTS",
        title=f"Lock workload resilience, {ops} ops/processor",
        headers=[
            "P", "fault rate", "seconds", "slowdown",
            "retries", "timeouts", "corrupted", "ring tx",
        ],
    )
    campaign = CampaignResult(result=result)
    it = iter(zip(plan, run_plan(plan, runner)))
    for p in proc_counts:
        baseline = None
        for r in fault_rates:
            (_, call), point = next(it)
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
            if trace_dir is not None and point.capture is not None:
                # The fault rate lives inside the (non-scalar) plan, so
                # the slug alone would collide across rates.
                rate_slug = str(r).replace(".", "p").replace("-", "m")
                name = f"faults_rate-{rate_slug}_{point_slug(call)}.trace.json"
                write_chrome_trace(Path(trace_dir) / name, [point.capture])
    worst_rate = max(fault_rates)
    if worst_rate > 0 and proc_counts:
        p_last = proc_counts[-1]
        s = campaign.points[(p_last, worst_rate)]
        result.notes.append(
            f"at P={p_last}, rate {worst_rate:g}: slowdown {s['slowdown']:.3f}x, "
            f"{int(s['retries'])} retries, {int(s['timeouts'])} timeouts"
        )
    return campaign
