"""Command-line front end: ``ksr-serve``.

Serve the paper's experiments over a local HTTP/JSON API::

    ksr-serve                          # 127.0.0.1:8321, process pool of 2
    ksr-serve --port 0 --verbose       # ephemeral port (printed on start)
    ksr-serve --jobs 1                 # compute in the serving process
    ksr-serve --jobs 8                 # process pool of 8
    ksr-serve --cache-dir /var/ksr --cache-cap-mb 256

Submit work with any HTTP client::

    curl -s localhost:8321/v1/experiments
    curl -s -X POST localhost:8321/v1/jobs -d \
      '{"kind": "experiment", "experiment": "fig3", "wait": true}'

Fleet mode scales the same API across a coordinator + N workers::

    ksr-serve --fleet 3                # coordinator + 3 workers, one port
    ksr-serve --fleet 3 --replication 2

Multi-host mode splits the fleet across real processes/machines::

    # terminal 1 (or host A): the front door, fleet starts empty
    KSR_FLEET_TOKEN=$TOKEN ksr-serve --coordinator --port 8321

    # terminals 2..N (or hosts B..): workers dial in and register
    KSR_FLEET_TOKEN=$TOKEN ksr-serve --worker --join http://hostA:8321
    KSR_FLEET_TOKEN=$TOKEN ksr-serve --worker --join http://hostA:8321

Workers register over ``POST /v1/fleet/register`` and keep
re-registering (the worker-side heartbeat); the coordinator admits
them into the consistent-hash ring with a bounded key-range rebalance,
detects death via heartbeats, and after ``--dead-interval`` seconds
re-replicates the lost worker's key range from surviving replicas.
Every fleet control/data-plane call carries the shared secret
(``--fleet-token`` / ``$KSR_FLEET_TOKEN``) in ``X-Fleet-Token``.

On SIGTERM/SIGINT the server drains gracefully: admission stops
(503), in-flight jobs get a bounded deadline, then the process exits.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro.experiments.sweep import CACHE_DIR_DEFAULT, CACHE_DIR_ENV
from repro.util.cli import format_cache_stats, install_sigpipe_handler, positive_int

__all__ = ["main"]

#: Cache root of ``--fleet`` and ``--worker`` without ``--cache-dir``.
FLEET_CACHE_DEFAULT = ".ksr-fleet-cache"


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``ksr-serve`` argument parser (separate for testability)."""
    parser = argparse.ArgumentParser(
        prog="ksr-serve",
        description="Serve KSR-1 experiment campaigns over a local HTTP/JSON API.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8321, help="port (0: ephemeral)")
    parser.add_argument(
        "--jobs",
        type=positive_int,
        default=None,
        metavar="N",
        help="compute in-process (1) or on a pool of N worker processes "
        "(default 2; 1 for --fleet and --worker)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=f"result cache root (default ${CACHE_DIR_ENV} or ./{CACHE_DIR_DEFAULT}, "
        f"the cache ksr-experiments uses; ./{FLEET_CACHE_DEFAULT} with --fleet "
        "or --worker)",
    )
    parser.add_argument(
        "--cache-cap-mb",
        type=float,
        default=None,
        metavar="MB",
        help="LRU-evict the cache (each worker's shard with --fleet or "
        "--worker) down to this size (default: uncapped)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="concurrent job executors"
    )
    parser.add_argument(
        "--queue-cap",
        type=int,
        default=8,
        help="max accepted-but-unfinished jobs before 429 rejection",
    )
    parser.add_argument(
        "--max-points",
        type=int,
        default=512,
        help="per-job sweep-point admission bound (oversized jobs get 413)",
    )
    parser.add_argument(
        "--drain-deadline",
        type=float,
        default=30.0,
        metavar="S",
        help="graceful-shutdown budget: seconds in-flight jobs get to "
        "finish after SIGTERM before the process exits anyway",
    )
    fleet = parser.add_argument_group("fleet mode")
    fleet.add_argument(
        "--fleet",
        type=int,
        default=None,
        metavar="N",
        help="serve a local fleet: a coordinator (public port) + N workers "
        "on ephemeral ports, each owning a cache shard by key range",
    )
    fleet.add_argument(
        "--replication",
        type=int,
        default=2,
        metavar="R",
        help="copies of each fresh result across the fleet (owner + R-1 "
        "ring successors; default 2)",
    )
    multihost = parser.add_argument_group("multi-host mode")
    multihost.add_argument(
        "--coordinator",
        action="store_true",
        help="serve a standalone coordinator with an empty fleet; workers "
        "join at runtime via POST /v1/fleet/register",
    )
    multihost.add_argument(
        "--worker",
        action="store_true",
        help="serve a standalone fleet worker that registers with the "
        "coordinator named by --join",
    )
    multihost.add_argument(
        "--join",
        metavar="URL",
        default=None,
        help="coordinator base URL a --worker registers with",
    )
    multihost.add_argument(
        "--worker-id",
        metavar="NAME",
        default=None,
        help="stable worker identity (default worker-<host>-<pid>); keep "
        "it stable across restarts to rejoin with the same shard",
    )
    multihost.add_argument(
        "--advertise",
        metavar="URL",
        default=None,
        help="base URL the coordinator should reach this worker at "
        "(default http://<bind-host>:<bound-port>)",
    )
    multihost.add_argument(
        "--fleet-token",
        metavar="TOKEN",
        default=None,
        help="shared secret for X-Fleet-Token auth on every fleet "
        "control/data-plane call (default $KSR_FLEET_TOKEN; unset: open, "
        "for TLS-terminated deployments)",
    )
    multihost.add_argument(
        "--dead-interval",
        type=float,
        default=10.0,
        metavar="S",
        help="seconds a worker may stay dead before the coordinator "
        "re-replicates its key range from surviving replicas (default 10)",
    )
    multihost.add_argument(
        "--register-interval",
        type=float,
        default=5.0,
        metavar="S",
        help="seconds between a worker's re-registrations (the worker-side "
        "heartbeat; default 5)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log requests and cache stats"
    )
    return parser


def _jobs_and_cap(args, default_jobs: int) -> tuple[int, int | None]:
    """The compute processes and cache cap (bytes) every serve mode uses."""
    cap = int(args.cache_cap_mb * 1024 * 1024) if args.cache_cap_mb else None
    return args.jobs or default_jobs, cap


def _make_app(args):
    import os

    from repro.service.app import ServiceApp

    jobs, cap = _jobs_and_cap(args, 2)
    return ServiceApp(
        # the location of ResultCache.default(), shared with the CLIs
        args.cache_dir or os.environ.get(CACHE_DIR_ENV, CACHE_DIR_DEFAULT),
        jobs=jobs,
        cap_bytes=cap,
        workers=args.workers,
        queue_cap=args.queue_cap,
        max_points=args.max_points,
    )


def _fleet_cache_root(args) -> str:
    return args.cache_dir or FLEET_CACHE_DEFAULT


def _fleet_auth(args):
    """Shared-secret auth from ``--fleet-token`` or ``$KSR_FLEET_TOKEN``."""
    import os

    from repro.service.fleet import FleetAuth
    from repro.service.fleet.wire import FLEET_TOKEN_ENV

    token = args.fleet_token or os.environ.get(FLEET_TOKEN_ENV) or None
    return FleetAuth(token)


def run_worker(args) -> int:
    """``ksr-serve --worker --join URL``: one standalone fleet worker."""
    import os
    import socket
    from pathlib import Path

    from repro.service.fleet import FleetWorkerApp, Registrar, make_worker_server

    if not args.join:
        raise SystemExit("--worker requires --join COORDINATOR_URL")
    auth = _fleet_auth(args)
    jobs, cap = _jobs_and_cap(args, 1)
    worker_id = args.worker_id or f"worker-{socket.gethostname()}-{os.getpid()}"
    root = _fleet_cache_root(args)
    # An explicit --cache-dir IS the shard; the default root gets a
    # per-worker subdirectory so co-hosted workers never share a shard.
    cache_dir = root if args.cache_dir else str(Path(root) / worker_id)
    app = FleetWorkerApp(
        cache_dir,
        worker_id=worker_id,
        jobs=jobs,
        cap_bytes=cap,
        workers=args.workers,
        queue_cap=args.queue_cap,
        max_points=args.max_points,
        auth=auth,
    )
    server = make_worker_server(app, args.host, args.port, verbose=args.verbose)
    host, port = server.server_address[0], server.server_address[1]
    advertised = (args.advertise or f"http://{host}:{port}").rstrip("/")
    registrar = Registrar(app, args.join, advertised,
                          interval=args.register_interval)
    registrar.start()
    print(f"ksr-serve worker {worker_id} listening on http://{host}:{port}")
    print(f"  joining {args.join} as {advertised} "
          f"(re-register every {args.register_interval:.0f}s)")
    print(f"  shard {cache_dir}, "
          f"auth {'on' if auth.enabled else 'OFF (open fleet plane)'}")

    def close() -> int:
        registrar.stop()
        return app.close(drain_deadline=args.drain_deadline)

    return _serve_until_signal(
        f"ksr-serve worker {worker_id}", close, args.drain_deadline, server
    )


def run_coordinator(args) -> int:
    """``ksr-serve --coordinator``: the fleet front door, starting empty."""
    from repro.service.fleet import (
        CoordinatorApp,
        FleetClient,
        make_coordinator_server,
    )

    auth = _fleet_auth(args)
    client = FleetClient(
        replication=args.replication,
        dead_interval=args.dead_interval,
        auth=auth,
    )
    coordinator = CoordinatorApp(
        client,
        workers=max(args.workers, 4),
        queue_cap=args.queue_cap,
        max_points=args.max_points,
    )
    server = make_coordinator_server(
        coordinator, args.host, args.port, verbose=args.verbose
    )
    host, port = server.server_address[0], server.server_address[1]
    print(f"ksr-serve coordinator listening on http://{host}:{port}")
    print(f"  fleet starts empty; workers join via "
          f"`ksr-serve --worker --join http://{host}:{port}`")
    print(f"  replication {args.replication}, "
          f"dead interval {args.dead_interval:.0f}s, "
          f"auth {'on' if auth.enabled else 'OFF (open fleet plane)'}")
    return _serve_until_signal(
        "ksr-serve coordinator",
        lambda: coordinator.close(drain_deadline=args.drain_deadline),
        args.drain_deadline,
        server,
    )


def _serve_until_signal(serve_label: str, close, deadline: float, server=None) -> int:
    """Serve until SIGTERM/SIGINT, then drain gracefully through ``close``.

    ``server`` is served on a thread here and shut down before
    ``close`` runs; pass ``None`` when ``close`` stops the serving
    threads itself.
    """
    stop = threading.Event()

    def on_signal(signum, frame):  # pragma: no cover - signal plumbing
        stop.set()

    try:
        signal.signal(signal.SIGTERM, on_signal)
        signal.signal(signal.SIGINT, on_signal)
    except ValueError:  # pragma: no cover - not the main thread
        pass
    if server is not None:
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
    try:
        stop.wait()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    print(f"{serve_label}: draining (deadline {deadline:.0f}s)")
    if server is not None:
        server.shutdown()
        thread.join(timeout=10)
    stranded = close()
    if stranded:
        print(f"{serve_label}: exited with {stranded} job(s) unfinished",
              file=sys.stderr)
        return 1
    print(f"{serve_label}: clean shutdown")
    return 0


def _make_fleet(args):
    """The :class:`LocalFleet` behind ``ksr-serve --fleet N``."""
    from repro.service.fleet import LocalFleet

    jobs, cap = _jobs_and_cap(args, 1)
    auth = _fleet_auth(args)
    return LocalFleet(
        _fleet_cache_root(args),
        n_workers=args.fleet,
        jobs=jobs,
        cap_bytes=cap,
        replication=args.replication,
        queue_cap=args.queue_cap,
        worker_threads=args.workers,
        max_points=args.max_points,
        host=args.host,
        port=args.port,
        verbose=args.verbose,
        dead_interval=args.dead_interval,
        # Without a token, LocalFleet generates its own secret.
        auth=auth if auth.enabled else None,
    )


def run_fleet_serve(args) -> int:
    """``ksr-serve --fleet N``: a local fleet behind one coordinator port."""
    fleet = _make_fleet(args)
    print(f"ksr-serve fleet listening on {fleet.base_url}")
    for wid, url in sorted(fleet.worker_urls().items()):
        print(f"  {wid} at {url}")
    print(f"  replication {args.replication}, queue cap {args.queue_cap}")
    return _serve_until_signal(
        "ksr-serve fleet",
        lambda: fleet.close(drain_deadline=args.drain_deadline),
        args.drain_deadline,
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``ksr-serve``."""
    install_sigpipe_handler()
    args = build_serve_parser().parse_args(argv)
    if args.worker:
        return run_worker(args)
    if args.coordinator:
        return run_coordinator(args)
    if args.fleet:
        return run_fleet_serve(args)
    from repro.service.app import make_server

    app = _make_app(args)
    server = make_server(app, args.host, args.port, verbose=args.verbose)
    host, port = server.server_address[0], server.server_address[1]
    print(f"ksr-serve listening on http://{host}:{port}")
    print(f"  backend {app.scheduler.backend.name}, "
          f"{app.scheduler.stats()['workers']} workers, "
          f"queue cap {app.scheduler.queue_cap}")
    print(f"  {format_cache_stats(app.cache.stats())}")
    return _serve_until_signal(
        "ksr-serve",
        lambda: app.close(drain_deadline=args.drain_deadline),
        args.drain_deadline,
        server,
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
