"""Federated ``ksr-serve``: coordinator + worker fleet.

The single-daemon serving layer makes one experiment point a pure,
cached function behind one HTTP process; this package scales that
abstraction the way the KSR-1 scales a cell's memory — by making many
workers look like one coherent resource:

* :mod:`~repro.service.fleet.ring` — consistent-hash ring (virtual
  nodes) mapping each ``point_key`` to its owning worker.
* :mod:`~repro.service.fleet.wire` — the fleet wire protocol (JSON
  control plane, pickled data plane, allowlisted function identity).
* :mod:`~repro.service.fleet.worker` — a ``ServiceApp`` owning one
  cache shard, with cross-worker read-through and async replication.
* :mod:`~repro.service.fleet.coordinator` — routing, heartbeat/health,
  key-range handoff on worker death; jobs are admitted and queued by
  the single daemon's scheduler, which runs them on the fleet.
* :mod:`~repro.service.fleet.local` — a one-process fleet harness on
  real loopback sockets (tests and ``ksr-serve --fleet``).

The invariant the whole package leans on is the same one the cache
leans on: every sweep point is a pure function of its arguments, so
*where* a point computes — which worker, before or after a handoff,
from a replica or fresh — can never change *what* it computes.  A
federated campaign is byte-identical to a single-daemon run.
"""

from repro.service.fleet.coordinator import (
    CoordinatorApp,
    FleetClient,
    FleetScheduler,
    FleetSweepRunner,
    WorkerHandle,
    make_coordinator_server,
)
from repro.service.fleet.local import LocalFleet
from repro.service.fleet.ring import HashRing
from repro.service.fleet.wire import FleetAuth, WireError
from repro.service.fleet.worker import (
    FleetWorkerApp,
    Registrar,
    make_worker_server,
)

__all__ = [
    "CoordinatorApp",
    "FleetAuth",
    "FleetClient",
    "FleetScheduler",
    "FleetSweepRunner",
    "FleetWorkerApp",
    "HashRing",
    "LocalFleet",
    "Registrar",
    "WireError",
    "WorkerHandle",
    "make_coordinator_server",
    "make_worker_server",
]
