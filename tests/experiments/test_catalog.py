"""The experiment catalog: each experiment declared once, each plan what its run computes."""

from __future__ import annotations

import importlib
from dataclasses import replace

import pytest

from repro.experiments.base import CATALOG, run_plan
from repro.experiments.cli import main
from repro.experiments.sweep import SweepRunner, point_key

#: Small parameters for every mapped experiment, over its quick sizes.
_TINY = {
    "fig2": {"proc_counts": [1, 3], "samples": 10},
    "fig3": {"proc_counts": [2], "ops": 2},
    "fig4": {"proc_counts": [2, 3], "reps": 2},
    "fig5": {"proc_counts": [2], "reps": 2},
    "proj-barriers": {"proc_counts": [2, 3], "reps": 2},
    "f1": {"proc_counts": [2], "ops": 2},
    "f2": {"proc_counts": [2], "reps": 2},
    "f3": {"proc_counts": [1, 2]},
}


class RecordingRunner(SweepRunner):
    """Serial runner recording each batch of points it computes."""

    def __init__(self) -> None:
        super().__init__()
        self.batches: list[tuple] = []

    def _execute(self, func, calls):  # type: ignore[override]
        self.batches.append((func, [dict(kwargs) for kwargs in calls]))
        return super()._execute(func, calls)


#: The public function of every mapped experiment, which other code calls.
_PUBLIC = {
    "fig2": "latency:run_figure2",
    "fig3": "locks:run_figure3",
    "fig4": "barriers:run_figure4",
    "fig5": "barriers:run_figure5",
    "proj-barriers": "projection:run_barrier_projection",
    "f1": "degraded:run_degraded_locks",
    "f2": "degraded:run_degraded_barriers",
    "f3": "degraded:run_degraded_kernels",
}


def test_every_mapped_experiment_is_exercised():
    assert {key for key, entry in CATALOG.items() if entry.plan} == set(_TINY)


def test_each_entry_names_only_the_functions_it_runs():
    assert set(_PUBLIC) == set(_TINY)
    for key, entry in CATALOG.items():
        assert entry.key == key
        if entry.plan:
            assert entry.assemble and not entry.function, key
        else:
            assert entry.function and not entry.assemble, key


@pytest.mark.parametrize("key", sorted(_PUBLIC))
def test_public_run_defaults_are_the_catalog_default_run(key, monkeypatch):
    entry = CATALOG[key]
    tiny = {**entry.params(quick=True), **_TINY[key]}
    monkeypatch.setitem(CATALOG, key, replace(entry, default=tiny))
    module, _, name = _PUBLIC[key].partition(":")
    run = getattr(importlib.import_module(f"repro.experiments.{module}"), name)
    runner = RecordingRunner()
    run(runner=runner)
    computed = [point_key(func, kwargs) for func, calls in runner.batches for kwargs in calls]
    planned = {point_key(func, kwargs) for func, kwargs in entry.plan_for(**tiny)}
    assert len(computed) == len(planned)
    assert set(computed) == planned


@pytest.mark.parametrize("key", sorted(_TINY))
def test_plan_is_what_the_run_computes(key):
    entry = CATALOG[key]
    params = {**entry.params(quick=True), **_TINY[key]}
    runner = RecordingRunner()
    entry.run(runner, **params)
    computed = [point_key(func, kwargs) for func, calls in runner.batches for kwargs in calls]
    planned = {point_key(func, kwargs) for func, kwargs in entry.plan_for(**params)}
    assert len(computed) == len(set(computed)) == len(planned)
    assert set(computed) == planned


def test_consecutive_calls_of_one_function_are_one_batch():
    runner = RecordingRunner()
    CATALOG["f3"].run(runner, proc_counts=[1, 2], seed=505)
    assert [func.__name__ for func, _ in runner.batches] == [
        "degraded_ep_point", "degraded_cg_point",
    ]


def test_a_single_unit_experiment_is_a_one_call_plan():
    from repro.experiments.cg_scaling import run_table1
    from repro.experiments.other_archs import run_other_archs

    assert CATALOG["tab1"].plan_for(full_size=False) == [(run_table1, {"full_size": False})]
    (value,) = run_plan(CATALOG["other-archs"].plan_for())
    assert value.render() == run_other_archs().render()


def test_quick_wins_over_full():
    fig3 = CATALOG["fig3"]
    assert fig3.params()["ops"] == 100
    assert fig3.params(full=True)["ops"] == 500
    assert fig3.params(quick=True, full=True)["ops"] == 30
    assert CATALOG["tab1"].params(quick=True, full=True) == {"full_size": True}


def test_full_help_names_every_experiment_with_full_sizes(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    help_text = "".join(capsys.readouterr().out.split())  # undo argparse's wrapping
    full = [key for key, entry in CATALOG.items() if entry.full]
    assert f"affects{'/'.join(full)})" in help_text
    assert {"fig3", "cg-poststore", "sp-poststore", "cg-formats", "fig8", "future"} <= set(full)
