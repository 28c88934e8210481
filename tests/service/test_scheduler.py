"""Scheduler: lifecycle, admission control, coalescing, determinism.

Every case runs twice: on the single daemon's :class:`Scheduler` (the
``Test*`` classes) and on the fleet's :class:`FleetScheduler` over an
in-process fake fleet (their ``TestFleet*`` subclasses).
"""

from __future__ import annotations

import threading
import time
from typing import Any

import pytest

from repro.experiments.locks import run_figure3
from repro.experiments.sweep import ResultCache, point_key
from repro.service.backends import InlineBackend
from repro.service.fleet.coordinator import FleetScheduler
from repro.service.jobs import JobSpec, ServiceError
from repro.service.scheduler import RejectedError, Scheduler


def make_scheduler(tmp_path, **kwargs):
    cache = ResultCache(tmp_path / "cache")
    kwargs.setdefault("workers", 1)
    return Scheduler(InlineBackend(), cache, **kwargs)


class InlineFleetClient:
    """A fake fleet: points run inline, repeats are served from a memo."""

    def __init__(self) -> None:
        self.served: dict[str, Any] = {}

    def map_points(self, func, calls):
        keys = [point_key(func, call) for call in calls]
        computed = 0
        for key, call in zip(keys, calls):
            if key not in self.served:
                self.served[key] = func(**call)
                computed += 1
        values = [self.served[key] for key in keys]
        return values, {"points": len(calls), "local_hits": len(calls) - computed,
                        "remote_hits": 0, "computed": computed}


def make_fleet_scheduler(tmp_path, **kwargs):
    kwargs.setdefault("workers", 1)
    return FleetScheduler(InlineFleetClient(), **kwargs)


def point_spec(**params) -> JobSpec:
    return JobSpec.from_request({"kind": "point", "params": params})


class TestLifecycle:
    make = staticmethod(make_scheduler)

    def test_point_job_completes(self, tmp_path):
        scheduler = self.make(tmp_path)
        try:
            job = scheduler.submit(point_spec(n_procs=2, ops=3))
            assert job.wait(120)
            assert job.status == "done"
            assert job.payload is not None and job.payload["seconds"] > 0
            assert job.cache["misses"] == 1 and job.cache["hits"] == 0
        finally:
            scheduler.close()

    def test_resubmit_served_from_cache(self, tmp_path):
        scheduler = self.make(tmp_path)
        try:
            first = scheduler.submit(point_spec(n_procs=2, ops=3))
            assert first.wait(120)
            second = scheduler.submit(point_spec(n_procs=2, ops=3))
            assert second.wait(120)
            assert second.payload == first.payload
            assert second.cache["hits"] == 1 and second.cache["misses"] == 0
        finally:
            scheduler.close()

    def test_failed_job_reports_error(self, tmp_path):
        scheduler = self.make(tmp_path)
        try:
            # every param is validated at parse, so drive a genuine
            # runtime error through a spec built past that check: an
            # invalid machine size
            params = {**point_spec().param_dict(), "n_procs": 0, "ops": 3}
            job = scheduler.submit(JobSpec("point", tuple(sorted(params.items()))))
            assert job.wait(120)
            assert job.status == "failed"
            assert job.error
        finally:
            scheduler.close()

    def test_experiment_payload_matches_direct_run(self, tmp_path):
        scheduler = self.make(tmp_path)
        try:
            spec = JobSpec.from_request({
                "kind": "experiment", "experiment": "fig3",
                "params": {"procs": [2], "ops": 3},
            })
            job = scheduler.submit(spec)
            assert job.wait(300)
            assert job.status == "done"
            direct = run_figure3(proc_counts=[2], ops=3)
            assert job.payload["rendered"] == direct.render()
            assert job.payload["rows"] == direct.rows
        finally:
            scheduler.close()

    def test_obs_request_carries_capture_summaries(self, tmp_path):
        scheduler = self.make(tmp_path)
        try:
            spec = JobSpec.from_request(
                {"kind": "point", "params": {"n_procs": 2, "ops": 3}, "obs": True}
            )
            job = scheduler.submit(spec)
            assert job.wait(120)
            assert job.status == "done"
            assert len(job.obs) == 1
            summary = job.obs[0]
            assert summary["n_cells"] >= 2
            assert "ring_transactions" in summary["totals"]
        finally:
            scheduler.close()


def _gate_execute(monkeypatch, gate: threading.Event):
    """Make any job with ops=999 park until ``gate`` is set."""
    original = JobSpec.execute

    def execute(self, runner):
        if self.param_dict().get("ops") == 999:
            gate.wait(120)
            return {"blocked": True}
        return original(self, runner)

    monkeypatch.setattr(JobSpec, "execute", execute)


class TestAdmission:
    make = staticmethod(make_scheduler)

    def test_queue_full_rejects_with_retry_after(self, tmp_path, monkeypatch):
        scheduler = self.make(tmp_path, queue_cap=1)
        gate = threading.Event()
        _gate_execute(monkeypatch, gate)
        try:
            blocked = scheduler.submit(point_spec(ops=999))  # parks the worker
            with pytest.raises(RejectedError) as err:
                scheduler.submit(point_spec(ops=4))
            assert err.value.status == 429
            assert err.value.retry_after >= 1.0
            assert scheduler.rejected == 1
            gate.set()
            assert blocked.wait(120)
        finally:
            gate.set()
            scheduler.close()

    def test_oversized_job_refused_up_front(self, tmp_path):
        scheduler = self.make(tmp_path, max_points=5)
        try:
            spec = JobSpec.from_request({
                "kind": "campaign",
                "params": {"procs": [2, 4, 8], "rates": [0.0, 1e-5, 1e-4]},
            })
            with pytest.raises(ServiceError) as err:
                scheduler.submit(spec)
            assert err.value.status == 413
        finally:
            scheduler.close()

    def test_identical_concurrent_submissions_coalesce(self, tmp_path, monkeypatch):
        scheduler = self.make(tmp_path, queue_cap=4)
        gate = threading.Event()
        _gate_execute(monkeypatch, gate)
        try:
            first = scheduler.submit(point_spec(ops=999))
            second = scheduler.submit(point_spec(ops=999))
            assert second is first, "identical in-flight spec must coalesce"
            assert scheduler.stats()["coalesced"] == 1
            gate.set()
            assert first.wait(120) and first.status == "done"
        finally:
            gate.set()
            scheduler.close()

    def test_distinct_specs_do_not_coalesce(self, tmp_path):
        scheduler = self.make(tmp_path, queue_cap=4)
        try:
            a = scheduler.submit(point_spec(ops=3))
            b = scheduler.submit(point_spec(ops=4))
            assert b is not a
            assert a.wait(120) and b.wait(120)
        finally:
            scheduler.close()


class TestConcurrentAdmission:
    """Many threads slam the scheduler with identical specs at once."""

    make = staticmethod(make_scheduler)

    def test_identical_specs_from_many_threads_coalesce_to_one_job(
        self, tmp_path, monkeypatch
    ):
        scheduler = self.make(tmp_path, queue_cap=4)
        gate = threading.Event()
        _gate_execute(monkeypatch, gate)
        n_threads = 16
        barrier = threading.Barrier(n_threads)
        jobs: list = [None] * n_threads

        def slam(index: int) -> None:
            barrier.wait(timeout=30)
            jobs[index] = scheduler.submit(point_spec(ops=999))

        try:
            threads = [
                threading.Thread(target=slam, args=(i,)) for i in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            # every submitter holds the SAME in-flight job object
            assert all(job is jobs[0] for job in jobs)
            assert scheduler.stats()["coalesced"] == n_threads - 1
            assert scheduler.stats()["submitted"] == n_threads
            gate.set()
            assert jobs[0].wait(120) and jobs[0].status == "done"
            # one execution, observed by everyone
            assert scheduler.stats()["completed"] == 1
        finally:
            gate.set()
            scheduler.close()

    def test_concurrent_overflow_rejections_price_retry_after(
        self, tmp_path, monkeypatch
    ):
        scheduler = self.make(tmp_path, queue_cap=2)
        gate = threading.Event()
        _gate_execute(monkeypatch, gate)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        outcomes: list = [None] * n_threads

        def slam(index: int) -> None:
            barrier.wait(timeout=30)
            try:
                # distinct specs: no coalescing, pure queue pressure
                outcomes[index] = scheduler.submit(point_spec(ops=999, seed=index))
            except RejectedError as exc:
                outcomes[index] = exc

        try:
            # ops=999 parks the single worker, so accepted jobs pile up
            threads = [
                threading.Thread(target=slam, args=(i,)) for i in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            rejections = [o for o in outcomes if isinstance(o, RejectedError)]
            accepted = [o for o in outcomes if not isinstance(o, RejectedError)]
            assert len(accepted) == 2, "accepted set must respect queue_cap"
            assert len(rejections) == n_threads - 2
            for rejection in rejections:
                assert rejection.status == 429
                assert rejection.retry_after >= 1.0
            assert scheduler.rejected == len(rejections)
            gate.set()
            for job in accepted:
                assert job.wait(120)
        finally:
            gate.set()
            scheduler.close()


class TestGracefulClose:
    make = staticmethod(make_scheduler)

    def test_close_drains_accepted_jobs_and_reports_zero_stranded(self, tmp_path):
        scheduler = self.make(tmp_path, queue_cap=8)
        jobs = [scheduler.submit(point_spec(ops=3, seed=i)) for i in range(4)]
        stranded = scheduler.close(deadline=120)
        assert stranded == 0
        assert all(job.status == "done" for job in jobs)
        assert scheduler.stats()["stranded"] == 0

    def test_close_is_idempotent(self, tmp_path):
        scheduler = self.make(tmp_path)
        assert scheduler.close() == 0
        assert scheduler.close() == 0

    def test_submit_after_close_is_refused_with_503(self, tmp_path):
        scheduler = self.make(tmp_path)
        scheduler.close()
        with pytest.raises(ServiceError) as err:
            scheduler.submit(point_spec(ops=3))
        assert err.value.status == 503
        assert scheduler.stats()["queued"] == 0

    def test_close_spends_one_deadline(self, tmp_path, monkeypatch):
        scheduler = self.make(tmp_path)
        gate = threading.Event()
        _gate_execute(monkeypatch, gate)
        try:
            scheduler.submit(point_spec(ops=999))  # parks the worker
            start = time.monotonic()
            assert scheduler.close(deadline=0.2) == 1
            assert time.monotonic() - start < 0.7
            assert scheduler.stats()["stranded"] == 1
        finally:
            gate.set()
            assert scheduler.close(deadline=120) == 0

    def test_drain_waits_for_the_accepted_set(self, tmp_path, monkeypatch):
        scheduler = self.make(tmp_path)
        gate = threading.Event()
        _gate_execute(monkeypatch, gate)
        try:
            job = scheduler.submit(point_spec(ops=999))
            assert scheduler.drain(0.1) == 1
            gate.set()
            assert scheduler.drain(120) == 0
            assert job.status == "done"
        finally:
            gate.set()
            scheduler.close()


class TestStats:
    make = staticmethod(make_scheduler)
    backend = "inline"

    def test_stats_counters(self, tmp_path):
        scheduler = self.make(tmp_path)
        try:
            job = scheduler.submit(point_spec(ops=3))
            assert job.wait(120)
            stats = scheduler.stats()
            assert stats["submitted"] == 1
            assert stats["completed"] == 1
            assert stats["backend"] == self.backend
            assert stats["tenants"] == {"default": {
                "submitted": 1, "completed": 1, "failed": 0,
                "rejected_quota": 0, "rejected_queue": 0, "coalesced": 0,
            }}
        finally:
            scheduler.close()


class TestFleetLifecycle(TestLifecycle):
    make = staticmethod(make_fleet_scheduler)


class TestFleetAdmission(TestAdmission):
    make = staticmethod(make_fleet_scheduler)


class TestFleetConcurrentAdmission(TestConcurrentAdmission):
    make = staticmethod(make_fleet_scheduler)


class TestFleetGracefulClose(TestGracefulClose):
    make = staticmethod(make_fleet_scheduler)


class TestFleetStats(TestStats):
    make = staticmethod(make_fleet_scheduler)
    backend = "fleet"
