"""Batching policy: pool slicing, admission pricing, coalescing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.sweep as sweep
from repro.experiments.sweep import ProcessPoolBackend, point_key
from repro.service.batching import JobTable, estimate_points
from repro.service.jobs import JobSpec, ServiceError

from tests.experiments.test_catalog import RecordingRunner
from tests.experiments.test_fig2_cell_runs import CountingRunner
from tests.experiments.test_sweep import square


def spec(body: dict) -> JobSpec:
    return JobSpec.from_request(body)


class _RecordingPool:
    """Executor stand-in: computes at submit, logs submits and collections."""

    def __init__(self) -> None:
        self.log: list[str] = []

    def submit(self, func, **kwargs):
        self.log.append("submit")
        pool, value = self, func(**kwargs)

        class Done:
            def result(self):
                pool.log.append("collect")
                return value

        return Done()

    def slices(self) -> list[int]:
        """Sizes of the runs of submits between collections."""
        runs = "".join("s" if e == "submit" else "c" for e in self.log).split("c")
        return [len(run) for run in runs if run]


class TestSplitBatches:
    """The process pool takes a map's points in slices of ``POOL_SLICE``,
    collecting each slice before it submits the next."""

    def _map(self, monkeypatch, n: int, size: int):
        monkeypatch.setattr(sweep, "POOL_SLICE", size)
        backend = ProcessPoolBackend(jobs=2)
        backend._pool = pool = _RecordingPool()
        values = backend.map(square, [dict(x=i) for i in range(n)])
        return values, pool.slices()

    def test_splits_in_order(self, monkeypatch):
        values, slices = self._map(monkeypatch, 7, 3)
        assert values == [i * i for i in range(7)]
        assert slices == [3, 3, 1]

    def test_exact_multiple(self, monkeypatch):
        assert self._map(monkeypatch, 4, 2) == ([0, 1, 4, 9], [2, 2])

    def test_empty(self):
        backend = ProcessPoolBackend(jobs=2)
        assert backend.map(square, []) == []
        assert backend._pool is None, "no pool started for nothing"


class TestEstimatePoints:
    def test_point_is_one(self):
        assert estimate_points(spec({"kind": "point"})) == 1

    def test_campaign_is_grid_size(self):
        s = spec({"kind": "campaign",
                  "params": {"procs": [2, 4, 8], "rates": [0.0, 1e-4]}})
        assert estimate_points(s) == 6

    def test_experiment_scales_with_procs(self):
        small = spec({"kind": "experiment", "experiment": "fig3",
                      "params": {"procs": [2]}})
        big = spec({"kind": "experiment", "experiment": "fig3",
                    "params": {"procs": [2, 4, 8]}})
        assert estimate_points(big) == 3 * estimate_points(small)

    @pytest.mark.parametrize("obs", [False, True], ids=["plain", "obs"])
    @pytest.mark.parametrize("body", [
        {"kind": "experiment", "experiment": "fig2", "params": {"procs": [1, 3], "samples": 10}},
        {"kind": "experiment", "experiment": "fig3", "params": {"procs": [2, 3], "ops": 2}},
        {"kind": "experiment", "experiment": "fig4", "params": {"procs": [2, 4], "reps": 2}},
        {"kind": "experiment", "experiment": "fig5", "params": {"procs": [2], "reps": 2}},
        {"kind": "campaign", "params": {"procs": [2, 3], "rates": [0.0, 1e-3], "ops": 2}},
        {"kind": "point", "params": {"n_procs": 2, "ops": 2}},
    ], ids=["fig2", "fig3", "fig4", "fig5", "campaign", "point"])
    def test_price_is_every_computed_point(self, body, obs):
        s = spec({**body, "obs": obs})
        runner = CountingRunner()
        s.execute(runner)
        assert estimate_points(s) == len(runner.computed)  # exact, so an upper bound

    @pytest.mark.parametrize("obs", [False, True], ids=["plain", "obs"])
    @pytest.mark.parametrize("experiment, params", [
        ("fig2", {"procs": [1, 3], "samples": 10}),
        ("fig3", {"procs": [2, 3], "ops": 2}),
        ("fig4", {"procs": [2, 4], "reps": 2}),
        ("fig5", {"procs": [2], "reps": 2}),
    ])
    def test_experiment_job_computes_exactly_its_plan(self, experiment, params, obs):
        s = spec({"kind": "experiment", "experiment": experiment, "params": params, "obs": obs})
        runner = RecordingRunner()
        s.execute(runner)
        computed = [point_key(func, kwargs) for func, calls in runner.batches for kwargs in calls]
        assert sorted(computed) == sorted({point_key(func, kwargs) for func, kwargs in s.plan()})

    @pytest.mark.parametrize("param", ["procs", "rates"])
    def test_lists_are_bounded(self, param):
        body = {"kind": "campaign", "params": {"procs": [2], "rates": [0.0]}}
        body["params"][param] *= 65
        with pytest.raises(ServiceError, match=f"'{param}' must be a list of 1 to 64"):
            spec(body)

    def test_price_counts_a_repeated_point_once(self):
        once = spec({"kind": "experiment", "experiment": "fig3", "params": {"procs": [2]}})
        twice = spec({"kind": "experiment", "experiment": "fig3", "params": {"procs": [2, 2]}})
        assert estimate_points(twice) == estimate_points(once) == 7

    @pytest.mark.parametrize("body, price", [
        ({"kind": "experiment", "experiment": "fig3"}, 21),
        ({"kind": "experiment", "experiment": "fig4"}, 27),
        ({"kind": "experiment", "experiment": "fig5"}, 36),
        ({"kind": "campaign"}, 4),
        ({"kind": "point"}, 1),
    ], ids=["fig3", "fig4", "fig5", "campaign", "point"])
    def test_served_default_prices(self, body, price):
        assert estimate_points(spec(body)) == price
        assert estimate_points(spec({**body, "obs": True})) == price

    def test_fig2_served_defaults(self):
        # procs [1, 2, 8, 32]: 33 cell-runs (cells 0..31 read and write
        # on one prefix each, plus cell 0 at 2 KB stride, whose larger
        # array needs its own) and 7 network runs; with obs, the 18
        # table calls less the two call-outs that repeat a table point.
        plain = spec({"kind": "experiment", "experiment": "fig2"})
        observed = spec({"kind": "experiment", "experiment": "fig2", "obs": True})
        assert estimate_points(plain) == 40
        assert estimate_points(observed) == 16

    def test_fig2_procs_must_be_integers(self):
        with pytest.raises(ServiceError, match="procs"):
            estimate_points(spec({"kind": "experiment", "experiment": "fig2",
                                  "params": {"procs": ["two"]}}))


_WORDS = st.sampled_from([
    "experiment", "campaign", "point", "fig2", "fig3", "fig4", "fig5", "tab1",
    "procs", "rates", "ops", "samples", "reps", "seed", "lock", "rw", "hardware",
    "n_procs", "read_fraction", "fault_rate",
])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 1100) | st.floats() | st.text(max_size=4)
    | _WORDS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_WORDS | st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
_BODIES = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(["experiment", "campaign", "point"]) | _JSON,
    "experiment": st.sampled_from(["fig2", "fig3", "fig4", "fig5"]) | _JSON,
    "obs": st.booleans() | _JSON,
    "params": st.dictionaries(_WORDS, _JSON, max_size=5) | _JSON,
}) | st.dictionaries(_WORDS | st.text(max_size=6), _JSON, max_size=5)


class TestHostileBodies:
    """Any JSON object body is a job spec with a price, or a ServiceError."""

    @settings(max_examples=300, deadline=None)
    @given(body=_BODIES)
    def test_parse_and_price_raise_only_service_errors(self, body):
        try:
            s = JobSpec.from_request(body)
        except ServiceError as exc:
            assert 400 <= exc.status < 500
            return
        assert estimate_points(s) >= 1


class TestJobTable:
    def test_claim_then_coalesce(self):
        table = JobTable()
        assert table.claim("k", "job-a") is None
        assert table.claim("k", "job-b") == "job-a"
        assert table.coalesced == 1
        assert table.inflight_count() == 1

    def test_release_allows_fresh_claim(self):
        table = JobTable()
        table.claim("k", "job-a")
        table.release("k")
        assert table.claim("k", "job-b") is None

    def test_distinct_specs_independent(self):
        table = JobTable()
        assert table.claim("k1", "a") is None
        assert table.claim("k2", "b") is None
        assert table.inflight_count() == 2


class TestJobSpecCanonical:
    def test_identical_requests_identical_canonical(self):
        a = spec({"kind": "experiment", "experiment": "fig3",
                  "params": {"ops": 5, "procs": [2, 8]}})
        b = spec({"kind": "experiment", "experiment": "fig3",
                  "params": {"procs": [2, 8], "ops": 5}})
        assert a.canonical() == b.canonical()

    def test_defaults_make_sparse_and_full_requests_equal(self):
        sparse = spec({"kind": "point"})
        full = spec({"kind": "point",
                     "params": {"lock": "rw", "n_procs": 8, "read_fraction": 0.0,
                                "ops": 10, "seed": 303, "fault_rate": 0.0}})
        assert sparse.canonical() == full.canonical()

    def test_obs_flag_changes_identity(self):
        assert spec({"kind": "point"}).canonical() != \
            spec({"kind": "point", "obs": True}).canonical()

    def test_param_change_changes_identity(self):
        a = spec({"kind": "point", "params": {"ops": 10}})
        b = spec({"kind": "point", "params": {"ops": 11}})
        assert a.canonical() != b.canonical()
