"""Admission control and job execution for the serving layer.

The scheduler is the seam between the HTTP surface and the compute
substrate.  One implementation serves the single daemon and the fleet
coordinator; its contract:

* **Bounded queueing** — at most ``queue_cap`` jobs wait; a submission
  past that is *rejected immediately* with a retry-after hint derived
  from recent service times, never silently buffered.  Overload shows
  up at the client as back-pressure, not at the server as unbounded
  memory.
* **Admission pricing** — a job estimated above ``max_points`` sweep
  points is refused outright (HTTP 413 at the API layer): the client
  must split it, mirroring how the batch layer slices accepted work.
* **Tenancy** — each tenant passes its token-bucket quota (429 with
  the exact token wait) and accepted jobs dequeue in weighted
  fair-share order (:mod:`repro.service.quotas`).  With one tenant
  that order is FIFO.
* **Coalescing** — identical concurrent specs share one execution via
  :class:`~repro.service.batching.JobTable`.
* **Deterministic payloads** — every job runs on a fresh sweep runner,
  so responses are byte-identical to the CLI's output for the same
  parameters, whatever the concurrency.

Only how one job runs differs between schedulers, behind
``_execute``.  :class:`Scheduler` runs a
:class:`~repro.service.backends.BackendSweepRunner` over the shared
backend + cache with every key the job touches pinned
(:meth:`ResultCache.pin_session`), so LRU eviction triggered by
concurrent stores can never remove an in-flight campaign's own points.
The fleet's :class:`~repro.service.fleet.coordinator.FleetScheduler`
runs the same runner on a :class:`~repro.service.fleet.coordinator.FleetBackend`,
which routes the misses to its workers.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.experiments.sweep import ResultCache
from repro.obs.summary import capture_summary
from repro.service.backends import Backend, BackendSweepRunner
from repro.service.batching import JobTable, estimate_points
from repro.service.jobs import JobSpec, ServiceError
from repro.service.quotas import DEFAULT_TENANT, FairShareQueue, TenantPolicy, TokenBucket

__all__ = ["Job", "RejectedError", "Scheduler"]

# Determinism sinks for `ksr-analyze flow` (KSR110): job specs decide
# sweep cache keys downstream, so submissions must be deterministic
# even though the scheduler itself keeps wall-clock bookkeeping.
__ksr_flow_sinks__ = ("Scheduler.submit",)


class RejectedError(ServiceError):
    """Queue full: reject-with-retry-after instead of unbounded growth."""

    def __init__(self, message: str, *, retry_after: float):
        super().__init__(message, status=429)
        self.retry_after = retry_after


@dataclass
class Job:
    """One accepted submission and (eventually) its result."""

    job_id: str
    spec: JobSpec
    #: Tenant the submission was attributed to (quota and fair-share
    #: accounting).
    tenant: str = DEFAULT_TENANT
    status: str = "queued"  # queued | running | done | failed
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    payload: dict[str, Any] | None = None
    error: str | None = None
    cache: dict[str, Any] = field(default_factory=dict)
    obs: list[dict[str, Any]] = field(default_factory=list)
    _done: threading.Event = field(default_factory=threading.Event, repr=False)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job settles; True if it did within timeout."""
        return self._done.wait(timeout)

    def describe(self) -> dict[str, Any]:
        """JSON-safe snapshot for ``GET /v1/jobs/<id>`` and waits."""
        doc: dict[str, Any] = {
            "job_id": self.job_id,
            "kind": self.spec.kind,
            "status": self.status,
        }
        if self.tenant != DEFAULT_TENANT:
            doc["tenant"] = self.tenant
        if self.started_at is not None and self.finished_at is not None:
            doc["seconds"] = self.finished_at - self.started_at
        if self.payload is not None:
            doc["result"] = self.payload
        if self.error is not None:
            doc["error"] = self.error
        if self.cache:
            doc["cache"] = self.cache
        if self.obs:
            doc["obs"] = self.obs
        return doc


class _JobScheduler:
    """Bounded, fair-share, multi-worker job executor.

    Subclasses say how one job runs (:meth:`_execute`); admission,
    queueing, bookkeeping, drain and close are shared.
    """

    def __init__(
        self,
        backend_name: str,
        *,
        workers: int,
        queue_cap: int,
        max_points: int,
        policies: dict[str, TenantPolicy] | None = None,
        default_policy: TenantPolicy | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_cap < 1:
            raise ValueError(f"queue_cap must be >= 1, got {queue_cap}")
        self.backend_name = backend_name
        self.queue_cap = queue_cap
        self.max_points = max_points
        self.policies = dict(policies or {})
        self.default_policy = default_policy or TenantPolicy()
        self._buckets: dict[str, TokenBucket] = {}
        self._fair = FairShareQueue(self.policy_for)
        self._table = JobTable()
        self._jobs: dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        #: Notified whenever the accepted set empties (drain waits on it).
        self._idle = threading.Condition(self._lock)
        self._queued = 0  # jobs accepted but not yet finished running
        self._recent_seconds: list[float] = []
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.rejected_quota = 0
        #: Jobs still unfinished when a bounded-deadline close gave up.
        self.stranded = 0
        self._closing = False
        self._tenants: dict[str, dict[str, int]] = {}
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"{type(self).__name__}-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- tenancy -------------------------------------------------------

    def policy_for(self, tenant: str) -> TenantPolicy:
        """The admission policy governing ``tenant``."""
        return self.policies.get(tenant, self.default_policy)

    def _bucket_for(self, tenant: str) -> TokenBucket | None:
        policy = self.policy_for(tenant)
        if policy.rate is None:
            return None
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(policy.rate, policy.burst)
        return bucket

    def _tenant_counters(self, tenant: str) -> dict[str, int]:
        counters = self._tenants.get(tenant)
        if counters is None:
            counters = self._tenants[tenant] = {
                "submitted": 0, "completed": 0, "failed": 0,
                "rejected_quota": 0, "rejected_queue": 0, "coalesced": 0,
            }
        return counters

    # -- submission ----------------------------------------------------

    def _retry_after_locked(self) -> float:
        """Back-off hint: queued work / workers, priced at recent speed.

        Caller must hold ``self._lock``.
        """
        recent = self._recent_seconds
        per_job = (sum(recent) / len(recent)) if recent else 1.0
        return max(1.0, round(self._queued * per_job / len(self._threads), 1))

    def submit(self, spec: JobSpec, tenant: str = DEFAULT_TENANT) -> Job:
        """Admit, coalesce or reject one spec for ``tenant``; returns its job."""
        points = estimate_points(spec)
        if points > self.max_points:
            raise ServiceError(
                f"job would fan out {points} sweep points, over this "
                f"server's per-job bound of {self.max_points}; split the "
                f"request",
                status=413,
            )
        with self._lock:
            if self._closing:
                raise ServiceError("scheduler is closed; resubmit elsewhere", status=503)
            counters = self._tenant_counters(tenant)
            self.submitted += 1
            counters["submitted"] += 1
            bucket = self._bucket_for(tenant)
            if bucket is not None:
                ok, wait = bucket.try_take()
                if not ok:
                    self.rejected_quota += 1
                    counters["rejected_quota"] += 1
                    raise RejectedError(
                        f"tenant {tenant!r} is over its admission quota; "
                        f"retry later",
                        retry_after=max(wait, 0.1),
                    )
            job = Job(
                job_id=f"job-{next(self._ids)}",
                spec=spec,
                tenant=tenant,
                submitted_at=time.time(),
            )
            existing = self._table.claim(spec.canonical(), job)
            if existing is not None:
                counters["coalesced"] += 1
                return existing  # identical request already in flight
            if self._queued >= self.queue_cap:
                self.rejected += 1
                counters["rejected_queue"] += 1
                self._table.release(spec.canonical())
                raise RejectedError(
                    f"queue full ({self.queue_cap} jobs); retry later",
                    retry_after=self._retry_after_locked(),
                )
            self._queued += 1
            self._jobs[job.job_id] = job
            # Pushed under the lock: close() flips _closing under it
            # before closing the queue, so an admitted job always lands.
            self._fair.push(tenant, job)
        return job

    def get(self, job_id: str) -> Job | None:
        """Look up an accepted job by id (None if unknown)."""
        with self._lock:
            return self._jobs.get(job_id)

    # -- execution -----------------------------------------------------

    def _worker(self) -> None:
        while (item := self._fair.pop()) is not None:
            self._run_job(item[1])

    def _execute(self, spec: JobSpec) -> tuple[dict[str, Any], dict[str, Any], list[Any]]:
        """Run one spec; returns ``(payload, cache accounting, obs captures)``."""
        raise NotImplementedError

    def _run_job(self, job: Job) -> None:
        job.status = "running"
        job.started_at = time.time()
        try:
            job.payload, job.cache, captures = self._execute(job.spec)
        except ServiceError as exc:
            job.status = "failed"
            job.error = str(exc)
        except Exception as exc:  # noqa: BLE001 - a job must never kill a worker
            job.status = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
        else:
            job.obs = [capture_summary(c) for c in captures]
            job.status = "done"
        finally:
            job.finished_at = time.time()
            with self._lock:
                self._queued -= 1
                counters = self._tenant_counters(job.tenant)
                if job.status == "done":
                    self.completed += 1
                    counters["completed"] += 1
                else:
                    self.failed += 1
                    counters["failed"] += 1
                self._recent_seconds.append(job.finished_at - job.started_at)
                del self._recent_seconds[:-20]  # rolling window
                if self._queued == 0:
                    self._idle.notify_all()
            self._table.release(job.spec.canonical())
            job._done.set()

    # -- lifecycle / stats ---------------------------------------------

    def stats(self) -> dict[str, Any]:
        """JSON-safe counters, overall and per tenant, for ``/v1/stats``."""
        with self._lock:
            return {
                "workers": len(self._threads),
                "queue_cap": self.queue_cap,
                "queued": self._queued,
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "rejected": self.rejected,
                "rejected_quota": self.rejected_quota,
                "stranded": self.stranded,
                "coalesced": self._table.coalesced,
                "max_points": self.max_points,
                "backend": self.backend_name,
                "tenants": {t: dict(c) for t, c in sorted(self._tenants.items())},
            }

    def drain(self, deadline: float = 30.0) -> int:
        """Wait up to ``deadline`` seconds for accepted jobs to settle.

        Returns the number of jobs still unfinished when the deadline
        expired (0 on a clean drain).  The caller is responsible for
        having stopped admission first — this only *waits*, it cannot
        hold back new submissions.
        """
        with self._idle:
            self._idle.wait_for(lambda: self._queued == 0, timeout=max(0.0, deadline))
            return self._queued

    def close(self, deadline: float = 30.0) -> int:
        """Stop admitting, finish accepted work, stop workers: one budget.

        New submissions are refused (503) from the first call on; the
        queue closes, so workers exit once the backlog is done; every
        worker is joined against the same ``deadline``.  Whatever is
        still unfinished then is counted in :attr:`stranded` (and
        returned) instead of being waited on forever.  Idempotent.
        """
        end = time.monotonic() + max(0.0, deadline)
        with self._lock:
            self._closing = True
        self._fair.close()
        for thread in self._threads:
            thread.join(timeout=max(0.0, end - time.monotonic()))
        with self._lock:
            self.stranded = self._queued
            return self.stranded


class Scheduler(_JobScheduler):
    """The single daemon's scheduler: jobs run on a backend over one shared cache."""

    def __init__(
        self,
        backend: Backend,
        cache: ResultCache,
        *,
        workers: int = 2,
        queue_cap: int = 8,
        max_points: int = 512,
    ):
        self.backend = backend
        self.cache = cache
        super().__init__(
            backend.name, workers=workers, queue_cap=queue_cap, max_points=max_points
        )

    def _execute(self, spec: JobSpec) -> tuple[dict[str, Any], dict[str, Any], list[Any]]:
        runner = BackendSweepRunner(self.backend, cache=self.cache)
        before = self.cache.stats()
        with self.cache.pin_session():
            payload = spec.execute(runner)
        after = self.cache.stats()
        cache = {
            "hits": after["hits"] - before["hits"],
            "misses": after["misses"] - before["misses"],
            "corrupt": after["corrupt"] - before["corrupt"],
            "root": after["root"],
        }
        return payload, cache, runner.captures

    def close(self, deadline: float = 30.0) -> int:
        """Close the scheduler; release the backend unless jobs were stranded."""
        stranded = super().close(deadline)
        if stranded == 0:
            self.backend.close()
        # else: a process-pool close() would block on the stranded
        # job's futures, re-introducing the unbounded wait this
        # deadline exists to prevent; the pool dies with the process.
        return stranded
