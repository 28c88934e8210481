"""Experiment serving: the long-lived, sharded, batched API layer.

The paper's methodology is a bag of independent (experiment,
processor-count) points; everything below this package — the DES, the
sweep runner, the result cache, fault campaigns, observability — makes
one such point a pure, cacheable function of its arguments.  This
package turns that substrate into a *service* (``ksr-serve``), storing
points in the same :class:`repro.experiments.sweep.ResultCache` the
CLIs use:

* :mod:`repro.service.backends` — the service's sweep runner over one
  shared backend (inline or a persistent process pool, both from
  :mod:`repro.experiments.sweep`), harvesting capture summaries.
* :mod:`repro.service.batching` — admission pricing and
  identical-request coalescing.
* :mod:`repro.service.scheduler` — the one job scheduler (daemon and
  fleet): bounded queueing with reject-with-retry-after overload
  behaviour.
* :mod:`repro.service.quotas` — per-tenant token buckets and
  stride-scheduled weighted fair share.
* :mod:`repro.service.app` / :mod:`repro.service.cli` — the HTTP/JSON
  surface and the ``ksr-serve`` command line.
* :mod:`repro.service.fleet` — the federated tier: coordinator +
  worker fleet with consistent-hash routing, cache replication and
  multi-host membership.

Responses are byte-identical to the equivalent ``ksr-experiments`` /
``ksr-faults`` output: serving changes *where* points compute, never
*what* they compute.
"""

from repro.service.backends import (
    Backend,
    BackendSweepRunner,
    InlineBackend,
    ProcessPoolBackend,
)
from repro.service.batching import JobTable, estimate_points
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
    "estimate_points",
]
