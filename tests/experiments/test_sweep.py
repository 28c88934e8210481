"""The sweep runner: cache keys, the on-disk cache, and the guarantee
that serial, parallel and cached runs all produce identical results."""

from __future__ import annotations

import pickle

import pytest

from repro.analysis.races import default_audit_workload, machine_fingerprint
from repro.experiments.locks import measure_lock, run_figure3
from repro.experiments.sweep import ResultCache, SweepRunner, code_version, point_key


def square(x: int) -> int:
    """Module-level so worker processes can unpickle it by reference."""
    return x * x


#: Arguments :func:`counted_square` was evaluated with, in order.
EVALUATED: list[int] = []


def counted_square(x: int) -> int:
    """``square`` that records each in-process evaluation."""
    EVALUATED.append(x)
    return x * x


def audit_fingerprint(seed: int) -> dict:
    """Fingerprint of the default audit workload (ignores the seed arg,
    which only exists to make distinct cache keys)."""
    machine, _ = default_audit_workload()
    return machine_fingerprint(machine)


class TestPointKey:
    def test_stable_across_calls(self):
        kwargs = dict(kind="hardware", n_procs=8, read_fraction=0.0)
        assert point_key(measure_lock, kwargs) == point_key(measure_lock, kwargs)

    def test_insensitive_to_kwarg_order(self):
        a = point_key(square, dict(x=1, y=2))
        b = point_key(square, dict(y=2, x=1))
        assert a == b

    def test_distinct_arguments_distinct_keys(self):
        assert point_key(square, dict(x=1)) != point_key(square, dict(x=2))

    def test_distinct_functions_distinct_keys(self):
        assert point_key(square, dict(x=1)) != point_key(measure_lock, dict(x=1))

    def test_code_version_is_hex_digest(self):
        version = code_version()
        assert len(version) == 64
        int(version, 16)  # raises if not hex

    def test_code_version_loads_no_analyzer(self):
        # Keying the cache reads MODEL_VERSION from the import-free
        # package root; no analysis submodule may load with it.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        package_root = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": package_root}
        script = (
            "import sys\n"
            "from repro.experiments.sweep import code_version\n"
            "code_version()\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.analysis.')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"

    def test_cache_token_keys_the_point(self):
        # Arguments exposing a `cache_token` (FaultPlan) are keyed by
        # it, so flipping any plan field is a cache miss...
        from repro.faults import FaultPlan

        a = point_key(square, dict(x=1, plan=FaultPlan(corruption_rate=1e-4)))
        b = point_key(square, dict(x=1, plan=FaultPlan(corruption_rate=1e-3)))
        assert a != b

    def test_equal_plans_share_a_key(self):
        # ...while two equal plans (distinct instances) hit the cache.
        from repro.faults import FaultPlan

        a = point_key(square, dict(x=1, plan=FaultPlan(dead_cells=(5,))))
        b = point_key(square, dict(x=1, plan=FaultPlan(dead_cells=(5,))))
        assert a == b

    def test_injector_version_bump_invalidates(self, monkeypatch):
        from repro.faults import FaultPlan
        import repro.faults.plan as plan_module

        before = point_key(square, dict(plan=FaultPlan()))
        monkeypatch.setattr(plan_module, "INJECTOR_VERSION", 2)
        after = point_key(square, dict(plan=FaultPlan()))
        assert before != after

    def test_cache_token_honoured_inside_containers(self, monkeypatch):
        # Regression: a FaultPlan nested in a list/tuple/dict used to
        # fall back to container repr, so INJECTOR_VERSION bumps did
        # not invalidate those cached points.
        from repro.faults import FaultPlan
        import repro.faults.plan as plan_module

        nests = {
            "list": lambda: dict(plans=[FaultPlan()]),
            "tuple": lambda: dict(plans=(FaultPlan(),)),
            "dict": lambda: dict(plans={"a": FaultPlan()}),
            "deep": lambda: dict(plans=[{"a": (FaultPlan(),)}]),
        }
        before = {name: point_key(square, make()) for name, make in nests.items()}
        monkeypatch.setattr(plan_module, "INJECTOR_VERSION", 2)
        for name, make in nests.items():
            assert point_key(square, make()) != before[name], name

    def test_container_rate_change_distinct_keys(self):
        from repro.faults import FaultPlan

        a = point_key(square, dict(plans=[FaultPlan(corruption_rate=1e-4)]))
        b = point_key(square, dict(plans=[FaultPlan(corruption_rate=1e-3)]))
        assert a != b

    def test_dict_kwarg_insensitive_to_insertion_order(self):
        a = point_key(square, dict(opts={"x": 1, "y": 2}))
        b = point_key(square, dict(opts={"y": 2, "x": 1}))
        assert a == b

    def test_address_bearing_repr_rejected(self):
        class Opaque:  # default object repr: <... object at 0x...>
            pass

        with pytest.raises(TypeError, match="kwarg 'widget'"):
            point_key(square, dict(widget=Opaque()))

    def test_address_bearing_repr_rejected_inside_container(self):
        class Opaque:
            pass

        with pytest.raises(TypeError, match="kwarg 'widgets'"):
            point_key(square, dict(widgets=[Opaque()]))

    def test_function_valued_kwarg_rejected(self):
        # functions repr as <function f at 0x...>: per-process keys
        with pytest.raises(TypeError, match="memory address"):
            point_key(square, dict(callback=square))


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = point_key(square, dict(x=3))
        hit, _ = cache.load(key)
        assert not hit
        cache.store(key, 9, meta={"func": "square"})
        hit, value = cache.load(key)
        assert hit and value == 9
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = point_key(square, dict(x=4))
        cache.store(key, 16)
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        hit, value = cache.load(key)
        assert not hit and value is None

    def test_corrupt_entry_counted_and_unlinked(self, tmp_path):
        # Regression: corruption used to be an unsignalled plain miss,
        # and the poisoned file stayed put, masking the next store.
        cache = ResultCache(tmp_path / "cache")
        key = point_key(square, dict(x=41))
        cache.store(key, 1681)
        cache._path(key).write_bytes(b"scrambled")
        hit, _ = cache.load(key)
        assert not hit
        assert cache.corrupt == 1 and cache.misses == 1
        assert not cache._path(key).exists(), "poisoned entry must be deleted"
        cache.store(key, 1681)
        hit, value = cache.load(key)
        assert hit and value == 1681

    def test_plain_miss_is_not_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        hit, _ = cache.load(point_key(square, dict(x=6)))
        assert not hit and cache.corrupt == 0 and cache.misses == 1

    def test_entry_missing_value_field_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = point_key(square, dict(x=5))
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"wrong": "shape"}))
        hit, _ = cache.load(key)
        assert not hit

    def test_default_respects_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KSR_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert ResultCache.default().root == tmp_path / "elsewhere"

    def test_root_resolved_absolute_at_construction(self, tmp_path, monkeypatch):
        # Regression: a relative root used to be re-resolved against
        # whatever the *current* working directory was at access time,
        # so the same campaign run from two directories got two cold
        # caches.
        monkeypatch.chdir(tmp_path)
        cache = ResultCache(".ksr-cache")
        assert cache.root.is_absolute()
        key = point_key(square, dict(x=9))
        cache.store(key, 81)
        elsewhere = tmp_path / "subdir"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        hit, value = cache.load(key)
        assert hit and value == 81, "chdir must not cold-start the cache"

    def test_stats_reports_resolved_root(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        stats = cache.stats()
        assert stats["root"] == str(tmp_path / "cache")
        assert set(stats) >= {"root", "hits", "misses", "corrupt"}


class TestSweepRunner:
    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_map_preserves_call_order(self):
        runner = SweepRunner()
        values = runner.map(square, [dict(x=i) for i in (3, 1, 2)])
        assert values == [9, 1, 4]

    def test_run_evaluates_single_point(self):
        assert SweepRunner().run(square, x=6) == 36

    def test_second_sweep_is_all_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = SweepRunner(cache=cache)
        calls = [dict(x=i) for i in range(5)]
        first = runner.map(square, calls)
        assert cache.misses == 5 and cache.hits == 0
        second = runner.map(square, calls)
        assert second == first
        assert cache.hits == 5 and cache.misses == 5

    def test_duplicate_calls_computed_once(self):
        EVALUATED.clear()
        seen = []
        values = SweepRunner().map(
            counted_square,
            [dict(x=i) for i in (3, 1, 3, 2, 1)],
            on_result=lambda i, kwargs, value: seen.append((i, kwargs["x"], value)),
        )
        assert values == [9, 1, 9, 4, 1]
        assert EVALUATED == [3, 1, 2]
        assert seen == [(0, 3, 9), (1, 1, 1), (2, 3, 9), (3, 2, 4), (4, 1, 1)]

    def test_duplicates_keep_cache_counts(self, tmp_path):
        EVALUATED.clear()
        cache = ResultCache(tmp_path / "cache")
        runner = SweepRunner(cache=cache)
        calls = [dict(x=i) for i in (3, 1, 3)]
        assert runner.map(counted_square, calls) == [9, 1, 9]
        assert EVALUATED == [3, 1]
        assert cache.misses == 3 and cache.hits == 0
        assert runner.map(counted_square, calls) == [9, 1, 9]
        assert EVALUATED == [3, 1]
        assert cache.hits == 3 and cache.misses == 3

    def test_parallel_duplicates_match_serial(self):
        calls = [dict(x=i) for i in (2, 5, 2, 5, 7)]
        with SweepRunner(jobs=2) as runner:
            assert runner.map(square, calls) == [4, 25, 4, 25, 49]

    def test_parallel_matches_serial(self):
        calls = [dict(x=i) for i in range(6)]
        serial = SweepRunner(jobs=1).map(square, calls)
        with SweepRunner(jobs=2) as runner:
            assert runner.map(square, calls) == serial

    def test_parallel_simulation_points_bit_identical(self):
        calls = [
            dict(kind="hardware", n_procs=p, read_fraction=0.0, ops=5, seed=303)
            for p in (2, 4)
        ]
        serial = SweepRunner(jobs=1).map(measure_lock, calls)
        with SweepRunner(jobs=2) as runner:
            parallel = runner.map(measure_lock, calls)
        assert parallel == serial  # float equality: bit-for-bit, not approx

    def test_one_pool_serves_every_map_until_close(self):
        runner = SweepRunner(jobs=2)
        assert runner.backend._pool is None, "the pool starts on the first map"
        assert runner.map(square, [dict(x=1), dict(x=2)]) == [1, 4]
        pool = runner.backend._pool
        assert pool is not None
        assert runner.map(square, [dict(x=3), dict(x=4)]) == [9, 16]
        assert runner.backend._pool is pool, "a second map reuses the pool"
        runner.close()
        assert runner.backend._pool is None
        runner.close()  # idempotent

    def test_context_manager_closes_the_pool(self):
        with SweepRunner(jobs=2) as runner:
            runner.map(square, [dict(x=1), dict(x=2)])
            assert runner.backend._pool is not None
        assert runner.backend._pool is None


class TestExperimentEquivalence:
    """The ISSUE's acceptance property, at test scale: a parallel and/or
    cached figure run is byte-identical to the plain serial one."""

    PROCS = [2, 4]
    OPS = 5

    def _fig3(self, runner):
        return run_figure3(proc_counts=self.PROCS, ops=self.OPS, runner=runner)

    def test_parallel_figure3_rows_identical(self):
        serial = self._fig3(SweepRunner(jobs=1))
        with SweepRunner(jobs=2) as runner:
            parallel = self._fig3(runner)
        assert parallel.rows == serial.rows
        assert parallel.series == serial.series
        assert parallel.render() == serial.render()

    def test_cached_figure3_rows_identical(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        serial = self._fig3(SweepRunner(jobs=1))
        cold = self._fig3(SweepRunner(cache=cache))
        warm = self._fig3(SweepRunner(cache=cache))
        assert cold.rows == serial.rows
        assert warm.rows == serial.rows
        assert cache.hits >= len(cold.rows)

    def test_parallel_machine_fingerprints_identical(self):
        calls = [dict(seed=s) for s in (1, 2)]
        serial = SweepRunner(jobs=1).map(audit_fingerprint, calls)
        with SweepRunner(jobs=2) as runner:
            parallel = runner.map(audit_fingerprint, calls)
        assert parallel == serial
