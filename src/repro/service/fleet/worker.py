"""Fleet worker: a ``ksr-serve`` daemon that owns a cache shard.

A worker is the full single-daemon stack (:class:`ServiceApp`:
scheduler, backend, sharded cache, public HTTP API) plus three
fleet-internal endpoints the coordinator and peers use::

    POST /v1/fleet/map          execute a routed batch of sweep points
    GET  /v1/fleet/entry/<key>  serve one cache entry to a peer (pickle)
    POST /v1/fleet/entry        adopt one replicated entry from a peer

The coordinator routes each point to the worker owning its
``point_key``; the worker resolves the batch exactly the way a single
daemon would (cache check → compute on its backend → store), with two
fleet twists layered on the same seams:

* **Cross-worker read-through** — the shard cache's ``remote_fetch``
  seam asks the worker's current replica peers for a missing key
  before computing it.  After a key-range handoff (a peer died and the
  ring reassigned its range here), the new owner pulls warm entries
  instead of recomputing the range.  Peers answer from
  :meth:`ResultCache.peek` — local disk only — so two workers
  missing the same key can never ping-pong.
* **Asynchronous replication** — every point this worker *computed*
  (a genuine miss) is pushed, off the request path, to its replica
  peers.  Replication is an availability warm-up, never a correctness
  mechanism: every value is a pure function of its arguments, so a
  lost replica costs a recompute, not an answer.

Per-request accounting is exact and deterministic: the map response
reports how many of its points were served from this shard, pulled
from peers, or computed fresh — the numbers the fleet smoke test's
≥95%-cache-served assertion sums.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.experiments.sweep import point_key
from repro.service.app import ServiceApp, _Handler, version_info
from repro.service.backends import BackendSweepRunner
from repro.service.fleet import wire

__all__ = ["FleetWorkerApp", "Registrar", "make_worker_server"]


class FleetWorkerApp(ServiceApp):
    """A :class:`ServiceApp` extended with the fleet data plane."""

    def __init__(
        self,
        cache_dir: str,
        *,
        worker_id: str,
        jobs: int = 1,
        cap_bytes: int | None = None,
        workers: int = 2,
        queue_cap: int = 8,
        max_points: int = 512,
        peer_timeout: float = 10.0,
        auth: wire.FleetAuth | None = None,
    ):
        super().__init__(
            cache_dir,
            jobs=jobs,
            cap_bytes=cap_bytes,
            workers=workers,
            queue_cap=queue_cap,
            max_points=max_points,
        )
        self.worker_id = worker_id
        self.peer_timeout = peer_timeout
        #: Shared-secret gate on every ``/v1/fleet/*`` endpoint, and the
        #: credential attached to outgoing peer calls (read-through,
        #: replication, repair pushes all cross worker boundaries).
        self.auth = auth or wire.FleetAuth(None)
        self.repairs_served = 0
        #: Replica peer base URLs, refreshed by every map request (the
        #: coordinator owns ring membership; workers just follow).
        self.peers: list[str] = []
        self._peers_lock = threading.Lock()
        self._replication_threads: list[threading.Thread] = []
        self.replicated_out = 0
        self.replicated_in = 0
        self.maps_served = 0
        self.cache.remote_fetch = self._read_through

    # -- read-through (the cache's remote_fetch seam) ------------------

    def _read_through(self, key: str) -> tuple[bool, Any]:
        """Ask replica peers for ``key``; first peer with the entry wins."""
        with self._peers_lock:
            peers = list(self.peers)
        for peer in peers:
            try:
                status, entry = wire.get_pickle(
                    f"{peer}/v1/fleet/entry/{key}",
                    timeout=self.peer_timeout, auth=self.auth,
                )
            except wire.WireError:
                continue  # dead peer: the next replica may still answer
            if status == 200 and isinstance(entry, dict) and "value" in entry:
                return True, entry["value"]
        return False, None

    # -- replication ---------------------------------------------------

    def _replicate(self, keys: list[str], peers: list[str]) -> None:
        for key in keys:
            hit, value, meta = self.cache.peek(key)
            if not hit:
                continue  # evicted between compute and replication
            body = {"key": key, "value": value, "meta": meta}
            for peer in peers:
                try:
                    status, _ = wire.post_pickle(
                        f"{peer}/v1/fleet/entry", body,
                        timeout=self.peer_timeout, auth=self.auth,
                    )
                except wire.WireError:
                    continue  # availability optimisation only
                if status == 200:
                    self.replicated_out += 1

    def _replicate_async(self, keys: list[str], peers: list[str]) -> None:
        if not keys or not peers:
            return
        thread = threading.Thread(
            target=self._replicate, args=(keys, peers), daemon=True,
            name=f"{self.worker_id}-replicate",
        )
        # Prune finished pushes first: a freshly created thread is not
        # alive until start(), so pruning after the append would drop it
        # and join_replication could miss an in-flight push.
        self._replication_threads = [t for t in self._replication_threads if t.is_alive()]
        self._replication_threads.append(thread)
        thread.start()

    def join_replication(self, timeout: float = 10.0) -> None:
        """Wait for in-flight replication pushes (tests + drain)."""
        for thread in list(self._replication_threads):
            thread.join(timeout=timeout)

    # -- fleet request handling ---------------------------------------

    def handle_fleet_map(self, body: dict[str, Any]) -> dict[str, Any]:
        """Execute one routed batch: ``{func, calls, peers, replicas}``.

        Returns ``{values, keys, stats}`` with values aligned to calls.
        """
        func = wire.resolve_point_func(body["func"])
        calls: list[dict[str, Any]] = body["calls"]
        peers: list[str] = list(body.get("peers", []))
        replica_peers: list[str] = list(body.get("replicas", peers))
        with self._peers_lock:
            self.peers = peers
        keys = [point_key(func, kwargs) for kwargs in calls]
        present_before = {key for key in keys if self.cache.contains(key)}
        remote_before = self.cache.remote_hits
        runner = BackendSweepRunner(self.scheduler.backend, cache=self.cache)
        with self.cache.pin_session():
            values = runner.map(func, calls)
        remote_served = self.cache.remote_hits - remote_before
        fresh = [
            key
            for key in dict.fromkeys(keys)  # de-dup, keep order
            if key not in present_before and self.cache.contains(key)
        ]
        # Keys adopted via read-through are "fresh" here too; pushing
        # them onward is an idempotent store, so no need to tell apart.
        computed = max(0, len(fresh) - remote_served)
        self._replicate_async(fresh, replica_peers)
        self.maps_served += 1
        return {
            "worker_id": self.worker_id,
            "values": values,
            "keys": keys,
            "stats": {
                "points": len(calls),
                "local_hits": len([k for k in keys if k in present_before]),
                "remote_hits": remote_served,
                "computed": computed,
            },
        }

    def handle_fleet_entry_get(self, key: str) -> tuple[int, dict[str, Any] | None]:
        """Serve one entry to a peer; ``(200, entry)`` or ``(404, None)``.

        A malformed key raises :class:`WireError` (answered 400).
        """
        try:
            hit, value, meta = self.cache.peek(key)
        except ValueError as exc:
            raise wire.WireError(str(exc), status=400) from exc
        if not hit:
            return 404, None
        return 200, {"key": key, "value": value, "meta": meta}

    def handle_fleet_entry_put(self, body: dict[str, Any]) -> dict[str, Any]:
        """Adopt one replicated entry pushed by a peer."""
        key, value = body["key"], body["value"]
        meta = dict(body.get("meta") or {})
        meta.setdefault("origin", "replica")
        try:
            present = self.cache.contains(key)
        except ValueError as exc:
            raise wire.WireError(str(exc), status=400) from exc
        if not present:
            self.cache.store(key, value, meta=meta)
            self.replicated_in += 1
        return {"ok": True, "worker_id": self.worker_id}

    def handle_fleet_keys(self) -> dict[str, Any]:
        """This shard's resident key list (the repair planner's census)."""
        keys = self.cache.keys()
        return {
            "worker_id": self.worker_id,
            "keys": keys,
            "count": len(keys),
            "fingerprint": self.cache.fingerprint(),
        }

    def handle_fleet_repair(self, body: dict[str, Any]) -> dict[str, Any]:
        """Push requested entries to peers (coordinator-driven repair).

        ``{"pushes": [{"key": ..., "peers": [url, ...]}, ...]}`` — the
        coordinator names exactly which of this shard's entries are
        missing where; the push is synchronous (the coordinator's
        repair round wants to know the factor *is* restored, not that
        a thread was spawned) and idempotent at the receiver.
        """
        pushed = missing = 0
        for item in body.get("pushes", ()):
            key, peers = item["key"], list(item["peers"])
            hit, value, meta = self.cache.peek(key)
            if not hit:
                missing += 1  # evicted since the census; next round re-plans
                continue
            entry = {"key": key, "value": value, "meta": meta}
            for peer in peers:
                try:
                    status, _ = wire.post_pickle(
                        f"{peer}/v1/fleet/entry", entry,
                        timeout=self.peer_timeout, auth=self.auth,
                    )
                except wire.WireError:
                    continue
                if status == 200:
                    pushed += 1
                    self.replicated_out += 1
        self.repairs_served += 1
        return {
            "ok": True,
            "worker_id": self.worker_id,
            "pushed": pushed,
            "missing": missing,
        }

    # -- status surfaces ----------------------------------------------

    def fleet_stats(self) -> dict[str, Any]:
        """Fleet-specific counters folded into ``/v1/stats``."""
        return {
            "worker_id": self.worker_id,
            "maps_served": self.maps_served,
            "replicated_out": self.replicated_out,
            "replicated_in": self.replicated_in,
            "repairs_served": self.repairs_served,
            "peers": list(self.peers),
            "auth": self.auth.enabled,
        }

    def handle_get(self, path: str) -> tuple[int, dict[str, Any]]:
        """Public GET surface, with fleet counters folded in."""
        status, doc = super().handle_get(path)
        if path in ("/healthz", "/v1/stats") and status == 200:
            doc["fleet"] = self.fleet_stats()
        return status, doc

    def close(self, *, drain_deadline: float = 30.0) -> int:
        """Graceful shutdown; lets replication pushes land first."""
        self.join_replication(timeout=min(5.0, drain_deadline))
        return super().close(drain_deadline=drain_deadline)


class _WorkerHandler(_Handler):
    """The public JSON API plus the pickle data plane."""

    app: FleetWorkerApp

    def _reply_pickle(self, status: int, obj: Any) -> None:
        payload = wire.dump_payload(obj)
        self.send_response(status)
        self.send_header("Content-Type", wire.PICKLE_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _fleet_authorized(self) -> bool:
        presented = self.headers.get(wire.FLEET_TOKEN_HEADER)
        if self.app.auth.verify(presented):
            return True
        self._reply(401, {"error": "missing or invalid fleet token"})
        return False

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path.startswith("/v1/fleet/"):
            if not self._fleet_authorized():
                return
            if self.path.startswith("/v1/fleet/entry/"):
                key = self.path.removeprefix("/v1/fleet/entry/")
                try:
                    status, entry = self.app.handle_fleet_entry_get(key)
                except wire.WireError as exc:
                    self._reply(400, {"error": str(exc)})
                    return
                if entry is None:
                    self._reply(status, {"error": "no such entry"})
                else:
                    self._reply_pickle(status, entry)
                return
            if self.path == "/v1/fleet/keys":
                self._reply(200, self.app.handle_fleet_keys())
                return
            self._reply(404, {"error": f"no such endpoint {self.path!r}"})
            return
        super().do_GET()

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path in ("/v1/fleet/map", "/v1/fleet/entry", "/v1/fleet/repair"):
            if not self._fleet_authorized():
                return
            data = self._body_bytes()
            if data is None:
                return
            try:
                body = wire.load_payload(data)
            except wire.WireError:
                self._reply(400, {"error": "malformed fleet payload"})
                return
            if self.app.closing and self.path == "/v1/fleet/map":
                self._reply(
                    503,
                    {"error": "worker is draining"},
                    {"Retry-After": str(self.app.drain_retry_after())},
                )
                return
            try:
                if self.path == "/v1/fleet/map":
                    doc = self.app.handle_fleet_map(body)
                elif self.path == "/v1/fleet/repair":
                    doc = self.app.handle_fleet_repair(body)
                else:
                    doc = self.app.handle_fleet_entry_put(body)
            except wire.WireError as exc:
                self._reply(400, {"error": str(exc)})
                return
            except Exception as exc:  # noqa: BLE001 - peer fault isolation
                self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})
                return
            self._reply_pickle(200, doc)
            return
        super().do_POST()


class Registrar:
    """Keeps a standalone worker registered with its coordinator.

    The worker side of ``ksr-serve --worker --join URL``: registers on
    start and re-registers every ``interval`` seconds on a daemon
    thread.  Registration is idempotent at the coordinator, so the
    loop doubles as a worker-side heartbeat — it survives coordinator
    restarts (the fresh coordinator relearns the fleet from the
    re-registrations) and re-admits this worker after a partition
    heals, riding the coordinator's rejoin re-replication path.
    """

    def __init__(
        self,
        app: FleetWorkerApp,
        join_url: str,
        advertised_url: str,
        *,
        interval: float = 5.0,
        timeout: float = 10.0,
    ):
        self.app = app
        self.join_url = join_url.rstrip("/")
        self.advertised_url = advertised_url.rstrip("/")
        self.interval = interval
        self.timeout = timeout
        self.registered = threading.Event()
        self.attempts = 0
        self.last_error = ""
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def register_once(self) -> bool:
        """One registration attempt; returns success."""
        self.attempts += 1
        body = {
            "worker_id": self.app.worker_id,
            "base_url": self.advertised_url,
            "version": version_info(),
            "fingerprint": self.app.cache.fingerprint(),
        }
        try:
            status, doc = wire.post_json(
                f"{self.join_url}/v1/fleet/register", body,
                timeout=self.timeout, auth=self.app.auth,
            )
        except wire.WireError as exc:
            self.last_error = str(exc)
            return False
        if status != 200:
            self.last_error = f"HTTP {status}: {doc.get('error', '')}"
            return False
        self.last_error = ""
        self.registered.set()
        return True

    def start(self) -> None:
        """Register now (best effort) and keep re-registering."""
        if self._thread is not None:
            return

        def loop() -> None:
            self.register_once()
            while not self._stop.wait(self.interval):
                self.register_once()

        self._thread = threading.Thread(
            target=loop, name=f"{self.app.worker_id}-registrar", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the re-registration loop and join its thread."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.timeout + 1)
            self._thread = None


def make_worker_server(app: FleetWorkerApp, host: str = "127.0.0.1", port: int = 0,
                       *, verbose: bool = False):
    """Bind a fleet worker to a threading HTTP server (``port=0``: ephemeral)."""
    from repro.service.app import _ServiceHTTPServer

    handler = type(
        "KsrFleetWorkerHandler", (_WorkerHandler,), {"app": app, "verbose": verbose}
    )
    return _ServiceHTTPServer((host, port), handler)
