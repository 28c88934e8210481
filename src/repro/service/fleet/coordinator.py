"""Fleet coordinator: routing, health, handoff.

The coordinator is the fleet's single public face.  It runs the
single daemon's job API and scheduler (:mod:`repro.service.app`,
:mod:`repro.service.scheduler`) — same endpoints, same 400/413/429
pricing, same tenant quotas and fair share, same byte-identical
payloads — and plugs the fleet in where one job runs: its
:class:`FleetScheduler` executes each job on a :class:`FleetBackend`
whose points go to the workers.  The fleet concerns:

* **Routing** — each job's sweep points are partitioned by the
  consistent-hash ring over their ``point_key`` and posted to the
  owning workers in parallel.  Point purity makes routing invisible in
  the results: any partition of the calls produces the same values, so
  a federated campaign is byte-identical to a single-daemon run.
* **Health & handoff** — workers are heartbeated over ``/healthz``; a
  worker that stops answering (or advertises a different code version,
  whose shard could never serve this coordinator's keys) is removed
  from the ring and its in-flight batches are re-partitioned among the
  survivors.  No job is lost to a worker death — its points are simply
  recomputed (or read through from replicas) at their new owners.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.experiments.sweep import point_key
from repro.service.app import _JobApp, version_info
from repro.service.backends import BackendSweepRunner
from repro.service.fleet import wire
from repro.service.fleet.ring import DEFAULT_VNODES, HashRing
from repro.service.jobs import JobSpec, ServiceError
from repro.service.quotas import TenantPolicy
from repro.service.scheduler import _JobScheduler

__all__ = ["WorkerHandle", "FleetClient", "FleetBackend", "FleetScheduler",
           "CoordinatorApp", "make_coordinator_server"]


@dataclass
class WorkerHandle:
    """One worker's membership record as the coordinator sees it."""

    worker_id: str
    base_url: str
    alive: bool = True
    reason: str = ""
    failures: int = 0
    last_seen: float = 0.0
    version: dict[str, str] = field(default_factory=dict)
    fingerprint: str = ""
    registered: bool = False
    dead_since: float | None = None
    repaired: bool = False

    def describe(self) -> dict[str, Any]:
        """JSON-able membership summary for status surfaces.

        ``last_seen`` goes out as an *age* in seconds (a raw monotonic
        stamp is meaningless to a reader on another clock), and
        ``version`` rides along so a version-gated worker's mismatch
        is visible right where its ``reason`` says "version mismatch".
        """
        return {
            "worker_id": self.worker_id,
            "base_url": self.base_url,
            "alive": self.alive,
            "reason": self.reason,
            "failures": self.failures,
            "last_seen_age_s": (
                round(time.monotonic() - self.last_seen, 3)
                if self.last_seen else None
            ),
            "version": dict(self.version),
            "fingerprint": self.fingerprint,
            "registered": self.registered,
        }


class FleetClient:
    """Routes point batches to workers; owns ring membership + health.

    Membership is dynamic: the fleet may start empty (a multi-host
    coordinator waiting for ``--worker --join`` daemons to register)
    and grows/shrinks through :meth:`register_worker`, heartbeat
    verdicts and the dead-interval reaper.  Every membership change
    that *gains* a worker a key range — a join, a rejoin, a handoff
    outliving the dead interval — funnels into :meth:`repair`, the one
    re-replication path, so the replication factor is restored instead
    of silently running degraded.
    """

    def __init__(
        self,
        workers: dict[str, str] | None = None,
        *,
        replication: int = 2,
        vnodes: int = DEFAULT_VNODES,
        map_timeout: float = 600.0,
        health_timeout: float = 5.0,
        max_failures: int = 2,
        dead_interval: float = 10.0,
        auth: wire.FleetAuth | None = None,
    ):
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if dead_interval < 0:
            raise ValueError(f"dead_interval must be >= 0, got {dead_interval}")
        self.replication = replication
        self.map_timeout = map_timeout
        self.health_timeout = health_timeout
        self.max_failures = max_failures
        self.dead_interval = dead_interval
        self.auth = auth or wire.FleetAuth(None)
        self.workers = {
            wid: WorkerHandle(worker_id=wid, base_url=url.rstrip("/"))
            for wid, url in (workers or {}).items()
        }
        self.ring = HashRing(self.workers, vnodes=vnodes)
        self._lock = threading.Lock()
        self._heartbeat_thread: threading.Thread | None = None
        self._stop = threading.Event()
        self.handoffs = 0
        self.routed_points = 0
        self.registrations = 0
        self.repairs = 0
        self.re_replicated = 0
        self.last_replication: dict[str, Any] | None = None
        self.stats_totals = {"points": 0, "local_hits": 0, "remote_hits": 0,
                             "computed": 0}

    # -- membership / health ------------------------------------------

    def alive_workers(self) -> list[WorkerHandle]:
        """Handles of the workers currently on the ring."""
        with self._lock:
            return [w for w in self.workers.values() if w.alive]

    def mark_dead(self, worker_id: str, reason: str) -> None:
        """Drop a worker from the ring; its key range falls to successors."""
        with self._lock:
            handle = self.workers.get(worker_id)
            if handle is None or not handle.alive:
                return
            handle.alive = False
            handle.reason = reason
            handle.dead_since = time.monotonic()
            handle.repaired = False
            self.ring.remove(worker_id)
            self.handoffs += 1

    def mark_alive(self, worker_id: str) -> bool:
        """Re-admit a worker to the ring (heartbeat answered sanely).

        Returns whether this was a dead→alive *rejoin*.  The caller
        must follow a rejoin with :meth:`repair`: keys written while
        the worker was out exist only on the stand-in replicas, and
        re-admission hands the worker its old key range back — without
        re-replication it would own ranges it does not hold.
        """
        with self._lock:
            handle = self.workers[worker_id]
            rejoined = not handle.alive
            if rejoined:
                handle.alive = True
                handle.reason = ""
                handle.dead_since = None
                handle.repaired = False
                self.ring.add(worker_id)
            handle.failures = 0
            handle.last_seen = time.monotonic()
        return rejoined

    def register_worker(
        self,
        worker_id: str,
        base_url: str,
        *,
        version: dict[str, str] | None = None,
        fingerprint: str = "",
    ) -> dict[str, Any]:
        """Admit (or re-admit) a standalone worker into the ring.

        The multi-host join path (``POST /v1/fleet/register``): the
        worker advertises its id, reachable base URL, code+model
        version and shard fingerprint.  A version-mismatched worker is
        refused outright (409) — its shard could never serve this
        coordinator's keys.  Admission is followed by a bounded
        key-range rebalance: only the ~K/N of the keyspace whose
        replica set now includes the newcomer is re-replicated.
        Re-registration is idempotent and doubles as the worker-side
        heartbeat; a re-register after a crash updates the advertised
        URL and rides the same repair path as a heartbeat rejoin.
        """
        version = dict(version or {})
        my_code = version_info()["code"]
        worker_code = version.get("code")
        if worker_code is not None and worker_code != my_code:
            raise ServiceError(
                f"worker {worker_id!r} runs code {worker_code[:12]}…, this "
                f"coordinator runs {my_code[:12]}…: version mismatch",
                status=409,
            )
        base_url = base_url.rstrip("/")
        with self._lock:
            handle = self.workers.get(worker_id)
            needs_repair = False
            if handle is None:
                handle = WorkerHandle(worker_id=worker_id, base_url=base_url)
                self.workers[worker_id] = handle
                self.ring.add(worker_id)
                # A newcomer takes over ~K/N of the keyspace; warm it.
                needs_repair = len(self.ring) > 1
            else:
                handle.base_url = base_url
                if not handle.alive:
                    handle.alive = True
                    handle.reason = ""
                    handle.dead_since = None
                    handle.repaired = False
                    self.ring.add(worker_id)
                    needs_repair = True
            handle.failures = 0
            handle.last_seen = time.monotonic()
            handle.version = version
            handle.fingerprint = fingerprint
            handle.registered = True
            self.registrations += 1
            description = handle.describe()
            members = len(self.ring)
        if needs_repair:
            self.repair()
        return {
            "admitted": True,
            "worker": description,
            "workers": members,
            "replication": self.replication,
        }

    def check_health(self) -> dict[str, bool]:
        """One heartbeat round; returns ``worker_id -> alive`` after it.

        Routing decisions come straight off the health responses: a
        worker advertising a different ``version.code`` is excluded
        (its cache keys are from different code — it could only waste
        compute under keys this coordinator would never find), a
        worker that failed ``max_failures`` consecutive probes is
        excluded, and a previously dead worker that answers again with
        a matching version rejoins the ring.
        """
        my_version = version_info()["code"]
        rejoined = False
        for handle in list(self.workers.values()):
            try:
                status, doc = wire.get_json(
                    f"{handle.base_url}/healthz", timeout=self.health_timeout
                )
            except wire.WireError:
                with self._lock:
                    handle.failures += 1
                    failures = handle.failures
                if failures >= self.max_failures:
                    self.mark_dead(handle.worker_id, "unreachable")
                continue
            worker_version = doc.get("version") or {}
            with self._lock:
                # Record what the worker advertised either way, so a
                # version-gated handle *shows* the mismatching version.
                handle.version = dict(worker_version)
            if status != 200 or doc.get("status") not in ("ok", "draining"):
                self.mark_dead(handle.worker_id, f"unhealthy ({status})")
                continue
            worker_code = worker_version.get("code")
            if worker_code is not None and worker_code != my_version:
                self.mark_dead(handle.worker_id, "version mismatch")
                continue
            if doc.get("status") == "draining":
                self.mark_dead(handle.worker_id, "draining")
                continue
            rejoined |= self.mark_alive(handle.worker_id)
        if rejoined:
            # Rejoin-without-repair would hand the worker back key
            # ranges it never saw written; re-replicate before routing
            # leans on it as a replica.
            self.repair()
        with self._lock:
            return {wid: h.alive for wid, h in self.workers.items()}

    def reap_dead(self) -> bool:
        """Re-replicate the key ranges of workers dead past the interval.

        Permanent-loss handling: once a worker has been off the ring
        for ``dead_interval`` seconds, its key range — now owned by
        ring successors that may hold no copies — is restored to the
        full replication factor from the surviving replicas.  Each
        death triggers exactly one repair; returns whether one ran.
        """
        now = time.monotonic()
        due = []
        with self._lock:
            for handle in self.workers.values():
                if (
                    not handle.alive
                    and not handle.repaired
                    and handle.dead_since is not None
                    and now - handle.dead_since >= self.dead_interval
                ):
                    handle.repaired = True
                    due.append(handle.worker_id)
        if not due:
            return False
        self.repair()
        return True

    def start_heartbeat(self, interval: float = 2.0) -> None:
        """Poll worker health on a daemon thread every ``interval`` s."""
        if self._heartbeat_thread is not None:
            return

        def loop() -> None:
            while not self._stop.wait(interval):
                self.check_health()
                self.reap_dead()

        self._heartbeat_thread = threading.Thread(
            target=loop, name="fleet-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()

    def close(self) -> None:
        """Stop the heartbeat thread (idempotent)."""
        self._stop.set()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=5)
            self._heartbeat_thread = None

    # -- routing -------------------------------------------------------

    def _peer_urls(self, exclude: str) -> list[str]:
        with self._lock:
            return [
                w.base_url for w in self.workers.values()
                if w.alive and w.worker_id != exclude
            ]

    def _replica_urls(self, worker_id: str) -> list[str]:
        """Where ``worker_id`` pushes fresh results: its ring successors."""
        with self._lock:
            if worker_id not in self.ring:
                return []
            successors = self.ring.successors(worker_id, self.replication - 1)
            return [self.workers[wid].base_url for wid in successors
                    if self.workers[wid].alive]

    def _map_one(
        self, handle: WorkerHandle, func_id: str, calls: list[dict[str, Any]]
    ) -> dict[str, Any] | None:
        body = {
            "func": func_id,
            "calls": calls,
            "peers": self._peer_urls(exclude=handle.worker_id),
            "replicas": self._replica_urls(handle.worker_id),
        }
        try:
            status, doc = wire.post_pickle(
                f"{handle.base_url}/v1/fleet/map", body,
                timeout=self.map_timeout, auth=self.auth,
            )
        except wire.WireError:
            return None
        if status != 200 or not isinstance(doc, dict) or "values" not in doc:
            return None
        if len(doc["values"]) != len(calls):
            return None  # truncated answer: treat like a dead worker
        return doc

    def map_points(
        self, func: Callable[..., Any], calls: Sequence[dict[str, Any]]
    ) -> tuple[list[Any], dict[str, int]]:
        """Route every call to its owner; survive worker deaths mid-map.

        Unanswered batches are re-partitioned over the surviving ring
        until every call has a value — the key-range handoff path.  The
        per-map stats dict reports how the points were served.
        """
        calls = list(calls)
        func_id = f"{func.__module__}.{func.__qualname__}"
        keys = [point_key(func, kwargs) for kwargs in calls]
        results: list[Any] = [None] * len(calls)
        resolved = [False] * len(calls)
        stats = {"points": len(calls), "local_hits": 0, "remote_hits": 0,
                 "computed": 0}
        unresolved = list(range(len(calls)))
        # Every retry round loses at least one worker, so membership
        # size bounds the rounds; +1 for the clean first pass.
        for _ in range(len(self.workers) + 1):
            if not unresolved:
                break
            alive = {w.worker_id: w for w in self.alive_workers()}
            if not alive:
                raise ServiceError("no live fleet workers", status=503)
            groups: dict[str, list[int]] = {}
            with self._lock:
                for i in unresolved:
                    groups.setdefault(self.ring.owner(keys[i]), []).append(i)
            with ThreadPoolExecutor(max_workers=len(groups)) as pool:
                futures = {
                    wid: pool.submit(
                        self._map_one, alive[wid], func_id,
                        [calls[i] for i in indices],
                    )
                    for wid, indices in groups.items()
                }
                still_unresolved: list[int] = []
                for wid, indices in groups.items():
                    doc = futures[wid].result()
                    if doc is None:
                        self.mark_dead(wid, "map failure")
                        still_unresolved.extend(indices)
                        continue
                    for i, value in zip(indices, doc["values"]):
                        results[i] = value
                        resolved[i] = True
                    for name in ("local_hits", "remote_hits", "computed"):
                        stats[name] += doc["stats"].get(name, 0)
            unresolved = still_unresolved
        if unresolved:
            raise ServiceError(
                f"{len(unresolved)} points could not be routed to any "
                f"live worker", status=503,
            )
        self.routed_points += len(calls)
        for name, value in stats.items():
            self.stats_totals[name] += value if name != "points" else len(calls)
        return results, stats

    # -- re-replication ------------------------------------------------

    def _fetch_holders(
        self, alive: Sequence[WorkerHandle]
    ) -> dict[str, set[str]]:
        """``key -> worker_ids holding a copy`` across the live fleet."""
        holders: dict[str, set[str]] = {}
        for handle in alive:
            try:
                status, doc = wire.get_json(
                    f"{handle.base_url}/v1/fleet/keys",
                    timeout=self.health_timeout, auth=self.auth,
                )
            except wire.WireError:
                continue
            if status != 200:
                continue
            for key in doc.get("keys", ()):
                holders.setdefault(key, set()).add(handle.worker_id)
        return holders

    def replication_report(self) -> dict[str, Any]:
        """Live census of how replicated every known key actually is.

        Diffs each key's resident copies against its desired ring
        replica set.  ``under_replicated`` counts keys missing from at
        least one desired replica — the number :meth:`repair` drives to
        zero.  The report is cached on ``last_replication`` so
        ``/v1/stats`` can show it without re-polling the fleet.
        """
        alive = self.alive_workers()
        holders = self._fetch_holders(alive)
        with self._lock:
            want_map = self.ring.replica_map(holders, self.replication)
        histogram: dict[str, int] = {}
        under = 0
        min_copies = None
        for key, have in holders.items():
            copies = len(have)
            histogram[str(copies)] = histogram.get(str(copies), 0) + 1
            min_copies = copies if min_copies is None else min(min_copies, copies)
            if any(wid not in have for wid in want_map[key]):
                under += 1
        report = {
            "keys": len(holders),
            "replication": self.replication,
            "effective_replication": min(self.replication, len(alive)),
            "alive": len(alive),
            "histogram": histogram,
            "min_copies": min_copies or 0,
            "under_replicated": under,
        }
        self.last_replication = report
        return report

    def repair(self) -> dict[str, Any]:
        """One re-replication round: restore the replication factor.

        Pulls every live worker's resident key list, computes each
        key's desired replica set on the current ring, and instructs
        one holder of every under-replicated key to push copies to the
        replica-set members that lack it (``POST /v1/fleet/repair``).
        Push sources prefer a desired-replica holder so the copy comes
        off a disk that will keep serving the key.  Best-effort per
        worker — an unreachable holder just leaves its keys for the
        next round — and bounded: only missing (key, peer) pairs move.
        """
        alive = self.alive_workers()
        urls = {h.worker_id: h.base_url for h in alive}
        holders = self._fetch_holders(alive)
        with self._lock:
            want_map = self.ring.replica_map(holders, self.replication)
        pushes: dict[str, list[dict[str, Any]]] = {}
        planned = 0
        for key, have in holders.items():
            want = want_map[key]
            missing = [wid for wid in want if wid not in have and wid in urls]
            if not missing:
                continue
            source = next((wid for wid in want if wid in have), None)
            if source is None:
                source = next(iter(have))
            pushes.setdefault(source, []).append(
                {"key": key, "peers": [urls[wid] for wid in missing]}
            )
            planned += len(missing)
        pushed = 0
        for source, assignments in pushes.items():
            try:
                status, doc = wire.post_pickle(
                    f"{urls[source]}/v1/fleet/repair",
                    {"pushes": assignments},
                    timeout=self.map_timeout, auth=self.auth,
                )
            except wire.WireError:
                continue
            if status == 200 and isinstance(doc, dict):
                pushed += int(doc.get("pushed", 0))
        with self._lock:
            self.repairs += 1
            self.re_replicated += pushed
        report = self.replication_report()
        report["planned"] = planned
        report["pushed"] = pushed
        self.last_replication = report
        return report

    # -- status --------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Membership, routing and served-point counters."""
        with self._lock:
            return {
                "workers": {wid: h.describe() for wid, h in self.workers.items()},
                "alive": sorted(w.worker_id for w in self.workers.values() if w.alive),
                "replication": self.replication,
                "vnodes": self.ring.vnodes,
                "handoffs": self.handoffs,
                "routed_points": self.routed_points,
                "registrations": self.registrations,
                "dead_interval": self.dead_interval,
                "repairs": self.repairs,
                "re_replicated": self.re_replicated,
                "replication_status": (
                    dict(self.last_replication) if self.last_replication else None
                ),
                "auth": self.auth.enabled,
                "totals": dict(self.stats_totals),
            }


class FleetBackend:
    """One job's backend: its cache misses computed by the worker fleet.

    The coordinator holds no point cache of its own — every cache shard
    lives with its owning worker — so every call of the job reaches
    :meth:`map`, and :attr:`served` sums the per-point served/computed
    accounting the workers' map responses carry.
    """

    name = "fleet"

    def __init__(self, client: FleetClient):
        self.client = client
        self.served = {"points": 0, "local_hits": 0, "remote_hits": 0, "computed": 0}

    def map(self, func: Callable[..., Any], calls: Sequence[dict[str, Any]]) -> list[Any]:
        """Route the calls to their owning workers; values in call order."""
        values, stats = self.client.map_points(func, calls)
        for name in self.served:
            self.served[name] += stats.get(name, 0)
        return values

    def close(self) -> None:
        """Nothing to release: the client outlives the job."""


class FleetScheduler(_JobScheduler):
    """The job scheduler over a worker fleet: jobs run on a :class:`FleetBackend`."""

    def __init__(
        self,
        client: FleetClient,
        *,
        workers: int = 4,
        queue_cap: int = 32,
        max_points: int = 512,
        policies: dict[str, TenantPolicy] | None = None,
        default_policy: TenantPolicy | None = None,
    ):
        self.client = client
        super().__init__(
            "fleet",
            workers=workers,
            queue_cap=queue_cap,
            max_points=max_points,
            policies=policies,
            default_policy=default_policy,
        )

    def _execute(self, spec: JobSpec) -> tuple[dict[str, Any], dict[str, Any], list[Any]]:
        backend = FleetBackend(self.client)
        runner = BackendSweepRunner(backend)
        payload = spec.execute(runner)
        served = backend.served
        cache = {
            # Same shape the single daemon reports: "hits" is every
            # cache-served point (own shard or replica), "misses"
            # is every freshly computed one — what the >=95%
            # resubmit assertion divides.
            "hits": served["local_hits"] + served["remote_hits"],
            "misses": served["computed"],
            "local_hits": served["local_hits"],
            "remote_hits": served["remote_hits"],
            "computed": served["computed"],
            "points": served["points"],
            "fleet": True,
        }
        return payload, cache, runner.captures


class CoordinatorApp(_JobApp):
    """The coordinator's HTTP facade: the shared job API over the fleet.

    ``make_coordinator_server`` binds it; the public job endpoints are
    the single daemon's, plus the ``/v1/fleet/*`` control plane.
    """

    scheduler: FleetScheduler

    def __init__(
        self,
        client: FleetClient,
        *,
        workers: int = 4,
        queue_cap: int = 32,
        max_points: int = 512,
        policies: dict[str, TenantPolicy] | None = None,
        default_policy: TenantPolicy | None = None,
        heartbeat_interval: float | None = 2.0,
    ):
        self.client = client
        super().__init__(
            FleetScheduler(
                client,
                workers=workers,
                queue_cap=queue_cap,
                max_points=max_points,
                policies=policies,
                default_policy=default_policy,
            )
        )
        if heartbeat_interval:
            client.start_heartbeat(heartbeat_interval)

    def _release(self) -> None:
        """Stop the heartbeat."""
        self.client.close()

    # -- request handling ----------------------------------------------

    def handle_get(self, path: str) -> tuple[int, dict[str, Any]]:
        """Route one GET; returns ``(status, json_doc)``."""
        if path == "/healthz":
            fleet = self.client.stats()
            return 200, {
                "status": "draining" if self.closing else "ok",
                "role": "coordinator",
                "uptime_s": round(time.time() - self.started_at, 3),
                "version": version_info(),
                "fleet": {"alive": fleet["alive"],
                          "workers": len(fleet["workers"]),
                          "handoffs": fleet["handoffs"]},
            }
        if path == "/v1/stats":
            return 200, {
                "scheduler": self.scheduler.stats(),
                "fleet": self.client.stats(),
                "version": version_info(),
            }
        if path == "/v1/fleet/workers":
            return 200, self.client.stats()
        if path == "/v1/fleet/replication":
            return 200, self.client.replication_report()
        return super().handle_get(path)

    def handle_register(self, body: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        """Admit one ``POST /v1/fleet/register`` body; ``(status, doc)``.

        The worker side of the multi-host join handshake.  Validation
        errors are the caller's fault (400); a version mismatch is a
        409 (re-registering won't help until one side redeploys).
        """
        worker_id = body.get("worker_id")
        base_url = body.get("base_url")
        if not isinstance(worker_id, str) or not worker_id:
            return 400, {"error": "'worker_id' must be a non-empty string"}
        if not isinstance(base_url, str) or not base_url.startswith(("http://", "https://")):
            return 400, {"error": "'base_url' must be an http(s) URL"}
        version = body.get("version") or {}
        if not isinstance(version, dict):
            return 400, {"error": "'version' must be an object"}
        fingerprint = body.get("fingerprint", "")
        if not isinstance(fingerprint, str):
            return 400, {"error": "'fingerprint' must be a string"}
        try:
            doc = self.client.register_worker(
                worker_id, base_url, version=version, fingerprint=fingerprint
            )
        except ServiceError as exc:
            return exc.status, {"error": str(exc)}
        return 200, doc


def make_coordinator_server(
    app: CoordinatorApp, host: str = "127.0.0.1", port: int = 0,
    *, verbose: bool = False,
):
    """Bind a coordinator to a threading HTTP server (``port=0``: ephemeral).

    Unlike the plain :func:`repro.service.app.make_server`, the handler
    knows the fleet control plane: ``POST /v1/fleet/register`` (JSON)
    admits standalone workers, and every ``/v1/fleet/*`` path — reads
    included — rejects requests without a valid ``X-Fleet-Token``.
    """
    from repro.service.app import _Handler, _ServiceHTTPServer

    class Handler(_Handler):
        app: CoordinatorApp

        def _fleet_authorized(self) -> bool:
            presented = self.headers.get(wire.FLEET_TOKEN_HEADER)
            if self.app.client.auth.verify(presented):
                return True
            self._reply(401, {"error": "missing or invalid fleet token"})
            return False

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            if self.path.startswith("/v1/fleet/") and not self._fleet_authorized():
                return
            super().do_GET()

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            if self.path == "/v1/fleet/register":
                if self._fleet_authorized() and (body := self._json_body()) is not None:
                    self._reply(*self.app.handle_register(body))
                return
            if self.path.startswith("/v1/fleet/") and not self._fleet_authorized():
                return
            super().do_POST()

    handler = type(
        "KsrCoordinatorHandler", (Handler,), {"app": app, "verbose": verbose}
    )
    return _ServiceHTTPServer((host, port), handler)
