"""Execution backends: equivalence, persistence, harvesting."""

from __future__ import annotations

import pytest

import repro.experiments.sweep as sweep
from repro.experiments.base import Point
from repro.experiments.locks import measure_lock
from repro.experiments.sweep import ResultCache, SweepRunner, backend_for
from repro.obs import ObsSpec
from repro.service.backends import (
    BackendSweepRunner,
    InlineBackend,
    ProcessPoolBackend,
    harvest_captures,
)

from tests.experiments.test_sweep import square
from tests.service.test_batching import _RecordingPool


class TestBackends:
    def test_inline_matches_process(self):
        calls = [dict(x=i) for i in range(5)]
        inline = InlineBackend().map(square, calls)
        pool = ProcessPoolBackend(jobs=2)
        try:
            assert pool.map(square, calls) == inline == [0, 1, 4, 9, 16]
        finally:
            pool.close()

    def test_process_pool_persists_across_maps(self):
        pool = ProcessPoolBackend(jobs=2)
        try:
            pool.map(square, [dict(x=1), dict(x=2)])
            first = pool._pool
            pool.map(square, [dict(x=3), dict(x=4)])
            assert pool._pool is first, "pool must be reused, not rebuilt"
        finally:
            pool.close()

    def test_single_call_stays_in_process(self):
        pool = ProcessPoolBackend(jobs=2)
        try:
            assert pool.map(square, [dict(x=7)]) == [49]
            assert pool._pool is None, "no pool spawned for one point"
        finally:
            pool.close()

    def test_simulation_point_bit_identical(self):
        calls = [
            dict(kind="hardware", n_procs=p, read_fraction=0.0, ops=5, seed=303)
            for p in (2, 4)
        ]
        pool = ProcessPoolBackend(jobs=2)
        try:
            assert pool.map(measure_lock, calls) == InlineBackend().map(measure_lock, calls)
        finally:
            pool.close()


class TestRegistry:
    """``backend_for``: the one map from a jobs count to a backend."""

    def test_jobs_pick_the_backend(self):
        assert isinstance(backend_for(1), InlineBackend)
        backend = backend_for(3)
        assert isinstance(backend, ProcessPoolBackend) and backend.jobs == 3
        assert backend.name == "process:3"

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(jobs=0)
        with pytest.raises(ValueError):
            backend_for(0)


class TestBackendSweepRunner:
    def test_matches_plain_runner_with_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        runner = BackendSweepRunner(InlineBackend(), cache=cache)
        calls = [dict(x=i) for i in range(4)]
        assert runner.map(square, calls) == SweepRunner().map(square, calls)
        assert cache.misses == 4
        assert runner.map(square, calls) == [0, 1, 4, 9]
        assert cache.hits == 4

    def test_max_batch_slices_execution(self, monkeypatch):
        # The runner's misses go through the pool backend's slicing:
        # each POOL_SLICE of points is collected before the next is sent.
        monkeypatch.setattr(sweep, "POOL_SLICE", 2)
        backend = ProcessPoolBackend(jobs=2)
        backend._pool = pool = _RecordingPool()
        runner = BackendSweepRunner(backend)
        assert runner.map(square, [dict(x=i) for i in range(5)]) == [0, 1, 4, 9, 16]
        assert pool.slices() == [2, 2, 1]

    def test_harvests_captures_from_tuples(self):
        runner = BackendSweepRunner(InlineBackend())
        calls = [
            dict(kind="hardware", n_procs=2, read_fraction=0.0, ops=3,
                 seed=303, obs=ObsSpec())
        ]
        values = runner.map(measure_lock, calls)
        assert isinstance(values[0], Point)
        assert runner.captures == [values[0].capture]
        assert runner.captures[0].n_cells >= 2

    def test_harvest_ignores_plain_values(self):
        assert harvest_captures([1.0, (2.0, "x"), None, Point(1.0)]) == []
