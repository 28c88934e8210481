"""Exact identity of the memory-hierarchy hot path.

The golden-table tests hold the published figures inside tolerance
bands, so a refactor of the per-access path (cell dispatch, sub-cache,
local cache, protocol, engine) could drift a few percent unnoticed.
This test pins, for a handful of representative points, everything a
run produces *exactly*: the measured mean (``repr``), the engine's
fired and scheduled event counts, the final simulation time, and the
performance-monitor counters summed over every cell of every machine
the point runs.  The counters are collected by wrapping
:meth:`KsrMachine.run`, so the experiment code is exercised unchanged.

The fixture ``hot_path_identity.json`` was generated before the
allocation-free hot path replaced the closure-based one; regenerate it
only for a change that is *meant* to move the model::

    PYTHONPATH=src python -m tests.machine.test_hot_path_identity --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.experiments.barriers import figure4_point
from repro.experiments.latency import measure_latencies
from repro.experiments.locks import measure_lock
from repro.machine.config import BLOCK_BYTES, PAGE_BYTES
from repro.machine.ksr import KsrMachine

FIXTURE = Path(__file__).with_name("hot_path_identity.json")

#: Timed accesses per fig2 point: far fewer than the published 1500 to
#: keep the test quick, but every access class still occurs.
_SAMPLES = 300


def _fig2(n_procs: int, level: str, op: str, stride: int | None = None) -> Callable[[], float]:
    def run() -> float:
        m = measure_latencies(
            n_procs, level, op, stride_bytes=stride, seed=101, samples=_SAMPLES
        )
        return m.mean_latency_s

    return run


POINTS: dict[str, Callable[[], Any]] = {
    "fig2 local read P=1": _fig2(1, "local", "read"),
    "fig2 local write P=1": _fig2(1, "local", "write"),
    "fig2 network read P=2": _fig2(2, "network", "read"),
    "fig2 network write P=2": _fig2(2, "network", "write"),
    "fig2 local read P=1 stride=2KB": _fig2(1, "local", "read", BLOCK_BYTES),
    "fig2 network read P=2 stride=16KB": _fig2(2, "network", "read", PAGE_BYTES),
    # P = 8 is the only case where eight cells interleave on one heap.
    "fig2 local read P=8": _fig2(8, "local", "read"),
    "fig2 local write P=8": _fig2(8, "local", "write"),
    "fig2 network write P=8": _fig2(8, "network", "write"),
    "fig3 rw 40% P=4": lambda: measure_lock("rw", 4, 0.4, ops=8, seed=303).seconds,
    "fig4 mcs P=4": lambda: figure4_point("mcs", 4, 4, 404).seconds,
}


def measure_point(name: str, monkeypatch: pytest.MonkeyPatch) -> dict[str, Any]:
    """Run one point with ``KsrMachine.run`` wrapped to collect counters."""
    runs: list[dict[str, Any]] = []
    original = KsrMachine.run

    def counting_run(self: KsrMachine, *args: Any, **kwargs: Any) -> None:
        original(self, *args, **kwargs)
        stats = self.engine.stats
        runs.append(
            {
                "events_fired": stats.events_fired,
                "events_scheduled": stats.events_scheduled,
                "sim_time": repr(stats.sim_time),
                "perf": self.total_perf().snapshot(),
            }
        )

    monkeypatch.setattr(KsrMachine, "run", counting_run)
    mean = POINTS[name]()
    perf: dict[str, float] = {}
    for run in runs:
        for field, value in run["perf"].items():
            perf[field] = perf.get(field, 0) + value
    return {
        "mean": repr(mean),
        "machines": len(runs),
        "events_fired": sum(r["events_fired"] for r in runs),
        "events_scheduled": sum(r["events_scheduled"] for r in runs),
        "sim_time": [r["sim_time"] for r in runs],
        "perf": {field: repr(value) for field, value in sorted(perf.items())},
    }


@pytest.fixture(scope="module")
def pinned() -> dict[str, Any]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_point(pinned):
    assert sorted(pinned) == sorted(POINTS)


@pytest.mark.parametrize("name", list(POINTS))
def test_point_is_identical(name, pinned, monkeypatch):
    got = measure_point(name, monkeypatch)
    want = pinned[name]
    # compare piecewise first so a failure names the drifting quantity
    for key in ("mean", "machines", "events_fired", "events_scheduled", "sim_time"):
        assert got[key] == want[key], key
    assert got["perf"] == want["perf"]


def _write_fixture() -> None:
    data = {}
    for name in POINTS:
        with pytest.MonkeyPatch.context() as mp:
            data[name] = measure_point(name, mp)
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.machine.test_hot_path_identity --write")
    _write_fixture()
