"""Verdict rules of ``python -m benchmarks.e2e compare``."""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.e2e.compare import compare, spread, verdict

BENCH = json.loads((Path(__file__).resolve().parents[3] / "BENCHMARK.json").read_text())


def test_spread_is_quartile_distance_over_median():
    assert spread([10.0] * 5) == 0.0
    assert 0.15 < spread([9.0, 10.0, 10.0, 10.0, 11.0, 12.0, 8.0]) < 0.25


def test_same_distribution_is_unchanged():
    runs = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert verdict(runs, list(reversed(runs)), "lower", 0.10) == "unchanged"


def test_worse_median_beyond_the_bound_regresses():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert verdict(parent, [v * 1.2 for v in parent], "lower", 0.10) == "regressed"
    assert verdict(parent, [v * 0.8 for v in parent], "higher", 0.10) == "regressed"
    assert verdict(parent, [v * 1.05 for v in parent], "lower", 0.10) == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0]
    assert verdict(noisy, noisy, "lower", 0.10) == "unresolved"
    # ...unless every run of the change beats every run of the parent.
    assert verdict(noisy, [1.0, 1.1, 0.9, 1.05, 0.95], "lower", 0.10) != "unresolved"


def test_improvement_needs_ten_pairs_won_nine_times_in_ten():
    parent = [10.0 + 0.01 * i for i in range(10)]
    assert verdict(parent, [v * 0.9 for v in parent], "lower", 0.10) == "improved"
    assert verdict(parent[:5], [v * 0.9 for v in parent[:5]], "lower", 0.10) == "unchanged"
    mixed = [v * 0.9 for v in parent[:8]] + parent[8:]
    assert verdict(parent, mixed, "lower", 0.10) == "unchanged"


def _run(workload, seed, value, *, failed=0, trace=False, events=100, tiny=False,
         seconds=BENCH["run_seconds"]):
    if trace:
        metrics = {"sim.events": {"value": events, "unit": "count"}}
    else:
        metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in BENCH["end_to_end"]}
    return {"workload": workload, "seed": seed, "trace": trace, "tiny": tiny,
            "seconds": seconds, "attempted": 10, "failed": failed, "metrics": metrics}


def test_runs_at_another_window_are_not_compared():
    parent = [_run("sim-fig2", s, 1.0) for s in range(5)]
    change = [_run("sim-fig2", s, 1.0) for s in range(5)]
    # Short runs that would read as a regression if they were pooled.
    change += [_run("sim-fig2", s, 9.0, tiny=True) for s in range(5)]
    change += [_run("sim-fig2", s, 9.0, seconds=BENCH["run_seconds"] / 2) for s in range(5)]
    rows = {row["metric"]: row for row in compare(parent, change, BENCH)}
    assert rows["wall_s"]["verdict"] == "unchanged"
    assert rows["wall_s"]["change"] == 1.0
    # Runs recorded without a window (older records) are not comparable either.
    legacy = [{k: v for k, v in run.items() if k != "seconds"} for run in change[:5]]
    assert compare(parent, legacy, BENCH) == []


def test_compare_reports_failures_and_counter_drift():
    parent = [_run("sim-fig2", s, 1.0) for s in range(5)] + [_run("sim-fig2", 0, 0, trace=True)]
    change = [_run("sim-fig2", s, 1.0, failed=s == 0) for s in range(5)]
    change.append(_run("sim-fig2", 0, 0, trace=True, events=101))
    rows = {row["metric"]: row["verdict"] for row in compare(parent, change, BENCH)}
    assert rows["wall_s"] == "unchanged"
    assert rows["fail_frac"] == "regressed"
    assert rows["sim.events"] == "differs"
