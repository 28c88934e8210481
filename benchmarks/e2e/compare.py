"""Verdicts between two sets of benchmark runs, one per metric and workload.

    python -m benchmarks.e2e compare PARENT.json CHANGE.json

Both files are ``--out`` files of :mod:`benchmarks.e2e.cli`.  Only runs
at the window of ``BENCHMARK.json`` (``seconds`` equal to
``run_seconds``, not ``--tiny``) are compared; the others are counted
and skipped.  For every end-to-end metric of ``BENCHMARK.json`` and
every workload present in both, over the plain runs:

* ``unresolved`` — either side's spread (quartile distance over median)
  is wider than the metric's bound, unless every run of the change
  reads better than every run of the parent;
* ``regressed`` — the change's median is worse than the parent's by
  more than the bound;
* ``improved`` — at least ten index-paired runs, the change wins at
  least nine tenths of the pairs (ties count for neither), and the
  medians differ by more than the parent's quartile distance;
* ``unchanged`` — otherwise.

``fail_frac`` (failed / attempted operations) has a bound of zero: any
rise is a regression.  For traced runs of the same workload and seed,
the exact counters (``sim.*``, ``mem.*``, ``ring.*`` counts and
``*.calls``) must be equal; a difference is reported as ``differs``.
The command exits 1 if any verdict is ``regressed``, ``unresolved`` or
``differs``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

__all__ = ["comparable", "spread", "summarize", "verdict", "compare", "main"]

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: str | Path) -> list[dict[str, Any]]:
    """The runs recorded in an ``--out`` file."""
    return json.loads(Path(path).read_text())["runs"]


def comparable(runs: list[dict], bench: dict[str, Any]) -> list[dict]:
    """The runs made at the window ``BENCHMARK.json`` fixes: full size, ``run_seconds``."""
    return [run for run in runs
            if run.get("tiny") is False and run.get("seconds") == bench["run_seconds"]]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def _values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in runs
            if run["workload"] == workload and not run["trace"]
            and metric in run["metrics"]]


def summarize(runs: list[dict], bench: dict[str, Any]) -> dict[str, dict[str, dict]]:
    """Per workload and end-to-end metric: median, quartiles, spread vs bound."""
    runs = comparable(runs, bench)
    out: dict[str, dict[str, dict]] = {}
    for workload in sorted({run["workload"] for run in runs}):
        for metric in bench["end_to_end"]:
            values = _values(runs, workload, metric["name"])
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            out.setdefault(workload, {})[metric["name"]] = {
                "n": len(values), "median": median, "q1": q1, "q3": q3,
                "spread": spread(values), "bound": metric["bound"],
                "within_bound": spread(values) <= metric["bound"],
            }
    return out


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """One metric's verdict (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    med_p, med_c = statistics.median(parent), statistics.median(change)
    every_run_better = all(sign * c < sign * p for p in parent for c in change)
    if max(spread(parent), spread(change)) > bound and not every_run_better:
        return "unresolved"
    if sign * (med_c - med_p) > bound * abs(med_p):
        return "regressed"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * c < sign * p)
    q1, _, q3 = quartiles(parent)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (med_p - med_c) > q3 - q1):
        return "improved"
    return "unchanged"


def _exact_names(bench: dict[str, Any]) -> list[str]:
    return [m["name"] for m in bench["per_layer"]
            if m["unit"] in ("count", "cycles")
            and (m["name"].startswith(("sim.", "mem.", "ring.")) or m["name"].endswith(".calls"))]


def compare(parent: list[dict], change: list[dict], bench: dict[str, Any]) -> list[dict]:
    """Verdict rows for every (workload, metric) both sides measured."""
    parent, change = comparable(parent, bench), comparable(change, bench)
    rows = []
    workloads = sorted({r["workload"] for r in parent} & {r["workload"] for r in change})
    for workload in workloads:
        for metric in bench["end_to_end"]:
            p = _values(parent, workload, metric["name"])
            c = _values(change, workload, metric["name"])
            if p and c:
                rows.append({
                    "workload": workload, "metric": metric["name"],
                    "verdict": verdict(p, c, metric["better"], metric["bound"]),
                    "parent": statistics.median(p), "change": statistics.median(c),
                    "spread_parent": spread(p), "spread_change": spread(c),
                    "bound": metric["bound"],
                })
        fails = []
        for runs in (parent, change):
            plain = [r for r in runs if r["workload"] == workload and not r["trace"]]
            attempted = sum(r["attempted"] for r in plain)
            fails.append(sum(r["failed"] for r in plain) / attempted if attempted else 0.0)
        rows.append({"workload": workload, "metric": "fail_frac",
                     "verdict": "regressed" if fails[1] > fails[0] else "unchanged",
                     "parent": fails[0], "change": fails[1], "bound": 0.0})
        traced = [r for r in parent + change if r["workload"] == workload and r["trace"]]
        for name in _exact_names(bench):
            by_seed: dict[int, set] = {}
            for run in traced:
                if name in run["metrics"]:
                    by_seed.setdefault(run["seed"], set()).add(run["metrics"][name]["value"])
            if by_seed:
                rows.append({"workload": workload, "metric": name,
                             "verdict": "exact" if all(len(v) == 1 for v in by_seed.values())
                             else "differs"})
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text())
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    for path, runs in zip(argv, (parent, change)):
        skipped = len(runs) - len(comparable(runs, bench))
        if skipped:
            print(f"{path}: skipped {skipped} run(s) not at the window of BENCHMARK.json "
                  f"(--tiny, or seconds != {bench['run_seconds']})")
    rows = compare(parent, change, bench)
    for row in rows:
        if "parent" not in row:
            if row["verdict"] != "exact":
                print(f"{row['workload']:11s} {row['metric']:24s} {row['verdict']}")
            continue
        spreads = ""
        if "spread_parent" in row:
            spreads = (f"  spread {row['spread_parent']:.3f}/{row['spread_change']:.3f}"
                       f" bound {row['bound']:.2f}")
        print(f"{row['workload']:11s} {row['metric']:24s} {row['verdict']:10s} "
              f"{row['parent']:.6g} -> {row['change']:.6g}{spreads}")
    exact = [r for r in rows if r["verdict"] == "exact"]
    if exact:
        print(f"{len(exact)} traced counters repeat exactly")
    bad = [r for r in rows if r["verdict"] in ("regressed", "unresolved", "differs")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
