"""One-process fleet harness: coordinator + N workers on real sockets.

Tests and ``ksr-serve --fleet`` need the same thing: a coordinator and
a handful of workers, each bound to its own loopback port, each owning
its own cache shard directory, wired together and torn down cleanly.
Running them as threads in one process keeps the harness fast and
debuggable while every byte still crosses a real HTTP socket — the
wire protocol, the routing, the read-through and the replication paths
are all exercised exactly as they would be across machines.
"""

from __future__ import annotations

import threading
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Any

from repro.service.fleet.coordinator import (
    CoordinatorApp,
    FleetClient,
    make_coordinator_server,
)
from repro.service.fleet.wire import FleetAuth
from repro.service.fleet.worker import FleetWorkerApp, make_worker_server
from repro.service.quotas import TenantPolicy

__all__ = ["LocalFleet"]

#: Seconds between ``serve_forever``'s shutdown checks.  Every stop
#: waits out up to one tick, and teardown stops the members one after
#: another, so the stdlib's 0.5 s tick would cost seconds per fleet.
_POLL_S = 0.05


class _Member:
    """One running server (app + HTTP server + serving thread)."""

    def __init__(self, app: Any, server: ThreadingHTTPServer):
        self.app = app
        self.server = server
        self.thread = threading.Thread(
            target=server.serve_forever, args=(_POLL_S,), daemon=True
        )
        self.thread.start()

    @property
    def base_url(self) -> str:
        host, port = self.server.server_address[0], self.server.server_address[1]
        return f"http://{host}:{port}"

    def kill(self) -> None:
        """Hard stop: close the socket without draining (a 'crash')."""
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)

    def stop(self, *, drain_deadline: float = 30.0) -> int:
        """Graceful stop: stop serving, drain the app, release."""
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        return self.app.close(drain_deadline=drain_deadline)


class LocalFleet:
    """Coordinator + ``n_workers`` fleet on loopback, context-managed.

    Workers bind ephemeral ports on ``host``; the coordinator binds
    ``host:port`` (``port=0``: ephemeral).  ``n_workers=0`` starts the
    coordinator with an empty ring, for workers that join over
    ``POST /v1/fleet/register``.
    """

    def __init__(
        self,
        cache_root: str | Path,
        *,
        n_workers: int = 3,
        backend: str = "inline",
        cap_bytes: int | None = None,
        replication: int = 2,
        queue_cap: int = 32,
        exec_workers: int = 4,
        worker_threads: int = 2,
        max_points: int = 512,
        max_batch: int = 64,
        policies: dict[str, TenantPolicy] | None = None,
        default_policy: TenantPolicy | None = None,
        heartbeat_interval: float | None = 1.0,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
        dead_interval: float = 10.0,
        auth: FleetAuth | None = None,
    ):
        if n_workers < 0:
            raise ValueError(f"n_workers must be >= 0, got {n_workers}")
        cache_root = Path(cache_root)
        # Even the loopback harness runs with a real shared secret:
        # the auth path is then exercised by every fleet test for free.
        self.auth = auth or FleetAuth.generate()
        self.host = host
        self.workers: dict[str, _Member] = {}
        for i in range(n_workers):
            worker_id = f"worker-{i}"
            app = FleetWorkerApp(
                str(cache_root / worker_id),
                worker_id=worker_id,
                backend=backend,
                cap_bytes=cap_bytes,
                workers=worker_threads,
                queue_cap=queue_cap,
                max_points=max_points,
                max_batch=max_batch,
                auth=self.auth,
            )
            self.workers[worker_id] = _Member(app, make_worker_server(app, host, 0))
        self.client = FleetClient(
            {wid: member.base_url for wid, member in self.workers.items()},
            replication=replication,
            dead_interval=dead_interval,
            auth=self.auth,
        )
        self.coordinator = CoordinatorApp(
            self.client,
            workers=exec_workers,
            queue_cap=queue_cap,
            max_points=max_points,
            policies=policies,
            default_policy=default_policy,
            heartbeat_interval=heartbeat_interval,
        )
        self._coord = _Member(
            self.coordinator,
            make_coordinator_server(self.coordinator, host, port, verbose=verbose),
        )

    @property
    def base_url(self) -> str:
        """The coordinator's public URL — the fleet's single front door."""
        return self._coord.base_url

    def worker_urls(self) -> dict[str, str]:
        """``worker_id -> base_url`` for every member, dead or alive."""
        return {wid: member.base_url for wid, member in self.workers.items()}

    def worker_app(self, worker_id: str) -> FleetWorkerApp:
        """Direct handle on one worker's app (tests reach into shards)."""
        return self.workers[worker_id].app

    def kill_worker(self, worker_id: str) -> None:
        """Simulate a worker crash (socket closed, nothing drained)."""
        self.workers[worker_id].kill()

    def restart_worker(self, worker_id: str) -> None:
        """Re-bind a killed worker's app on its old port (a 'reboot').

        The shard directory (and thus every entry written before the
        crash) survives; the next heartbeat or registration re-admits
        the worker, which triggers the coordinator's rejoin
        re-replication.
        """
        member = self.workers[worker_id]
        if member.thread.is_alive():
            raise RuntimeError(f"{worker_id} is still serving; kill it first")
        port = member.server.server_address[1]
        self.workers[worker_id] = _Member(
            member.app, make_worker_server(member.app, self.host, port)
        )

    def close(self, *, drain_deadline: float = 30.0) -> int:
        """Graceful teardown: coordinator first (stops routing), then workers.

        Returns how many coordinator jobs the drain left unfinished.
        """
        stranded = self._coord.stop(drain_deadline=drain_deadline)
        for member in self.workers.values():
            if member.thread.is_alive():
                member.stop(drain_deadline=drain_deadline)
            else:  # already killed; still release its scheduler/backend
                member.app.close(drain_deadline=0)
        return stranded

    def __enter__(self) -> "LocalFleet":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
