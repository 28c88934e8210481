"""A traced ``ksr-serve``: span wrappers around public entry points.

    python -m benchmarks.e2e.launcher TRACE_FILE [ksr-serve arguments...]

Installs the wrappers below, runs ``repro.service.cli.main`` with the
remaining arguments, and when the server exits (SIGTERM drains it)
writes every span as a Chrome trace to ``TRACE_FILE``.  The program
itself is unchanged; only calls into it are timed.

=============  ==================================================
span           wrapped call
=============  ==================================================
handle_submit  ``ServiceApp`` / ``CoordinatorApp.handle_submit``
admission      ``Scheduler`` / ``FleetScheduler.submit``
queue          from ``submit`` returning to ``JobSpec.execute``
execute        ``JobSpec.execute``
cache_read     ``ShardedResultCache.load`` and ``peek``
cache_write    ``ShardedResultCache.store``
compute        ``InlineBackend`` / ``ProcessPoolBackend.map``
route          ``FleetClient.map_points``
rpc            ``wire.post_pickle``, ``get_pickle`` and ``post_json``
replicate      ``FleetWorkerApp.handle_fleet_entry_put``
=============  ==================================================

Request ids come from the ``rid`` field the load generator adds to
each request body (``JobSpec`` ignores unknown fields).  They follow a
job from its HTTP handler to the scheduler thread that executes it,
from a route span to the RPCs it fans out, and, through a
``bench_trace`` field added to pickled fleet bodies, into the worker
that serves the RPC.  The machine counters count only the simulation
done for the cold batch and the open loop (request ids starting with
``w`` or ``o``), which is the same work on every run of a seed.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import Any

from benchmarks.e2e.layers import count_machine_runs
from benchmarks.e2e.spans import Recorder, chrome_trace

__all__ = ["COUNTED_PHASES", "install", "main"]

#: Request-id prefixes whose simulation the machine counters include.
COUNTED_PHASES = ("w", "o")


def _track(cls: type, bucket: list) -> None:
    """Remember every instance of ``cls`` created from now on."""
    inner = cls.__init__

    def init(self, *args: Any, **kwargs: Any) -> None:
        inner(self, *args, **kwargs)
        bucket.append(self)

    cls.__init__ = init  # type: ignore[misc]


def install(recorder: Recorder) -> dict[str, Any]:
    """Wrap the service's entry points; returns the state to export."""
    from repro.service import app, backends, cache2, jobs, scheduler
    from repro.service.fleet import coordinator, wire, worker

    state: dict[str, Any] = {"schedulers": [], "caches": [], "counters": {}}
    _track(scheduler.Scheduler, state["schedulers"])
    _track(coordinator.FleetScheduler, state["schedulers"])
    _track(cache2.ShardedResultCache, state["caches"])
    lock = threading.Lock()
    pending: dict[str, list[dict[str, Any]]] = {}  # canonical spec -> admissions
    jobs_seen: set[tuple[int, str]] = set()
    routes: dict[int, tuple[int, str | None]] = {}  # id(call kwargs) -> route span

    for cls in (app.ServiceApp, coordinator.CoordinatorApp):
        recorder.wrap(cls, "handle_submit", "handle_submit",
                      rid_of=lambda self, body: body.get("rid") if isinstance(body, dict) else None)

    def admission(cls: type) -> None:
        inner = cls.submit

        def submit(self, spec, *args: Any, **kwargs: Any):
            span = recorder.open("admission")
            entry = {"rid": span["rid"], "span": span}
            # Registered before the job can reach a worker thread, which
            # may start executing it before this call returns.
            with lock:
                pending.setdefault(spec.canonical(), []).append(entry)
            fresh = False
            try:
                job = inner(self, spec, *args, **kwargs)
                with lock:
                    fresh = (id(self), job.job_id) not in jobs_seen
                    jobs_seen.add((id(self), job.job_id))
                return job
            finally:
                recorder.close(span)
                if not fresh:  # coalesced onto a running job, or refused
                    with lock:
                        waiting = pending.get(spec.canonical(), [])
                        waiting[:] = [e for e in waiting if e is not entry]

        cls.submit = submit

    admission(scheduler.Scheduler)
    admission(coordinator.FleetScheduler)

    inner_execute = jobs.JobSpec.execute

    def execute(self, runner):
        with lock:
            waiting = pending.get(self.canonical())
            entry = waiting.pop(0) if waiting else None
        if entry is not None:
            now = time.perf_counter()
            recorder.add("queue", entry["span"]["end"] or now, now, entry["rid"])
            recorder.bind(entry["rid"])
        span = recorder.open("execute")
        try:
            return inner_execute(self, runner)
        finally:
            recorder.close(span)
            recorder.bind(None)

    jobs.JobSpec.execute = execute

    recorder.wrap(cache2.ShardedResultCache, "load", "cache_read")
    recorder.wrap(cache2.ShardedResultCache, "peek", "cache_read")
    recorder.wrap(cache2.ShardedResultCache, "store", "cache_write")
    recorder.wrap(backends.InlineBackend, "map", "compute")
    recorder.wrap(backends.ProcessPoolBackend, "map", "compute")

    inner_map_points = coordinator.FleetClient.map_points

    def map_points(self, func, calls):
        span = recorder.open("route")
        calls = list(calls)
        with lock:
            for call in calls:
                routes[id(call)] = (span["id"], span["rid"])
        try:
            return inner_map_points(self, func, calls)
        finally:
            with lock:
                for call in calls:
                    routes.pop(id(call), None)
            recorder.close(span)

    coordinator.FleetClient.map_points = map_points

    def rpc(name: str) -> None:
        inner = getattr(wire, name)

        def call(url: str, *args: Any, **kwargs: Any):
            body = args[0] if args else None
            parent = rid = None
            if isinstance(body, dict) and body.get("calls"):
                with lock:
                    parent, rid = routes.get(id(body["calls"][0]), (None, None))
            span = recorder.open("rpc", rid=rid, parent=parent)
            if name == "post_pickle" and isinstance(body, dict):
                args = ({**body, "bench_trace": [span["rid"], span["id"]]}, *args[1:])
            try:
                return inner(url, *args, **kwargs)
            finally:
                recorder.close(span)

        setattr(wire, name, call)

    for name in ("post_pickle", "get_pickle", "post_json"):
        rpc(name)

    def served(attr: str, span_name: str | None) -> None:
        """Bind a fleet handler's spans to the RPC that carried the body."""
        inner = getattr(worker.FleetWorkerApp, attr)

        def handle(self, body: dict[str, Any]):
            recorder.bind(*(body.get("bench_trace") or (None, None)))
            span = recorder.open(span_name) if span_name else None
            try:
                return inner(self, body)
            finally:
                if span is not None:
                    recorder.close(span)
                recorder.bind(None)

        setattr(worker.FleetWorkerApp, attr, handle)

    served("handle_fleet_map", None)
    served("handle_fleet_entry_put", "replicate")

    count_machine_runs(
        state["counters"],
        active=lambda: (recorder.current_rid() or " ")[0] in COUNTED_PHASES,
    )
    return state


def export(recorder: Recorder, state: dict[str, Any]) -> dict[str, Any]:
    """The traced server's spans and counters as a Chrome trace document."""
    other = {
        "counters": state["counters"],
        "schedulers": [s.stats() for s in state["schedulers"]],
        "caches": [{"hits": c.hits, "misses": c.misses, "remote_hits": c.remote_hits}
                   for c in state["caches"]],
    }
    return chrome_trace(recorder.snapshot(), pid=1, label="ksr-serve (traced)", other=other)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    trace_file, serve_args = argv[0], argv[1:]
    recorder = Recorder()
    state = install(recorder)
    from repro.service.cli import main as serve

    try:
        return serve(serve_args)
    finally:
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(export(recorder, state), fh)


if __name__ == "__main__":
    sys.exit(main())
