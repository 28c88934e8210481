"""Experiment serving: the long-lived, sharded, batched API layer.

The paper's methodology is a bag of independent (experiment,
processor-count) points; everything below this package — the DES, the
sweep runner, the result cache, fault campaigns, observability — makes
one such point a pure, cacheable function of its arguments.  This
package turns that substrate into a *service* (``ksr-serve``):

* :mod:`repro.service.cache2` — sharded, size-capped, pinnable result
  cache (two-level digest fan-out + manifest index).
* :mod:`repro.service.backends` — pluggable execution backends behind
  one protocol (inline, persistent process pool, room for remote).
* :mod:`repro.service.batching` — fan-out slicing, admission pricing
  and identical-request coalescing.
* :mod:`repro.service.scheduler` — the one job scheduler (daemon and
  fleet): bounded queueing with reject-with-retry-after overload
  behaviour.
* :mod:`repro.service.quotas` — per-tenant token buckets and
  stride-scheduled weighted fair share.
* :mod:`repro.service.app` / :mod:`repro.service.cli` — the HTTP/JSON
  surface and the ``ksr-serve`` command line.
* :mod:`repro.service.fleet` — the federated tier: coordinator +
  worker fleet with consistent-hash routing, cache replication and
  the ``--loadgen`` harness.

Responses are byte-identical to the equivalent ``ksr-experiments`` /
``ksr-faults`` output: serving changes *where* points compute, never
*what* they compute.
"""

from repro.service.backends import (
    Backend,
    BackendSweepRunner,
    InlineBackend,
    ProcessPoolBackend,
    make_backend,
    register_backend,
)
from repro.service.batching import JobTable, estimate_points, split_batches
from repro.service.cache2 import ShardedResultCache
from repro.service.jobs import JobSpec, ServiceError
from repro.service.scheduler import Job, RejectedError, Scheduler

__all__ = [
    "Backend",
    "BackendSweepRunner",
    "InlineBackend",
    "Job",
    "JobSpec",
    "JobTable",
    "ProcessPoolBackend",
    "RejectedError",
    "Scheduler",
    "ServiceError",
    "ShardedResultCache",
    "estimate_points",
    "make_backend",
    "register_backend",
    "split_batches",
]
