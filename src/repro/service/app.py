"""The HTTP/JSON surface of ``ksr-serve``.

Stdlib-only (``http.server``): the serving layer must run in the bare
container the simulator runs in.  A :class:`ServiceApp` owns the
scheduler + result cache; :func:`make_server` binds it to a
``ThreadingHTTPServer`` so every request handler thread can block on a
job without stalling the listener.

Endpoints::

    GET  /healthz            liveness + uptime
    GET  /v1/stats           cache + scheduler counters
    GET  /v1/experiments     served job kinds and their defaults
    POST /v1/jobs            submit {"kind": ..., "params": {...}}
                             (+"wait": true to block for the result,
                              +"obs": true for capture summaries,
                              +"tenant": name for quotas and fair share)
    GET  /v1/jobs/<id>       job status / result

Overload surfaces as ``429`` with a ``Retry-After`` header (seconds);
oversized jobs as ``413``; malformed requests as ``400`` — all with a
JSON body carrying ``error``.  Every job response embeds the cache
hit/miss/corrupt deltas for that execution, which is what the CI smoke
check asserts its ≥95%-hits-on-resubmit property against.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.experiments.sweep import ResultCache
from repro.service.backends import make_backend
from repro.service.jobs import JobSpec, ServiceError, describe_catalog
from repro.service.quotas import DEFAULT_TENANT
from repro.service.scheduler import RejectedError, Scheduler, _JobScheduler

__all__ = ["ServiceApp", "make_server", "version_info", "drain_retry_after",
           "DEFAULT_DRAIN_DEADLINE"]

#: Longest a ``"wait": true`` submission may block the handler thread.
MAX_WAIT_SECONDS = 600.0

#: Drain budget assumed when shutdown starts without an explicit one
#: (matches the ``--drain-deadline`` CLI default).
DEFAULT_DRAIN_DEADLINE = 30.0


def drain_retry_after(drain_ends_at: float | None) -> int:
    """Whole seconds until a drain deadline passes (floor 1).

    The ``Retry-After`` a draining server sends with its 503s: derived
    from the actual drain budget remaining — the moment a restarted
    process could plausibly answer — not a hardcoded constant, the same
    way the 429 path derives its hint from observed service times.
    """
    if drain_ends_at is None:
        return 1
    return max(1, math.ceil(drain_ends_at - time.monotonic()))

_version_info: dict[str, str] | None = None


def version_info() -> dict[str, str]:
    """What code this server runs: the cache-keying identity.

    ``code`` is :func:`repro.experiments.sweep.code_version` — the hash
    every cache key embeds — and ``model`` is the scenario-model
    semantic version folded into it.  A fleet coordinator refuses to
    route to a worker whose version differs: its shard could never
    serve this coordinator's keys, only recompute them under a key the
    coordinator would not find again.
    """
    global _version_info
    if _version_info is None:
        from repro.analysis.scenarios.model import MODEL_VERSION
        from repro.experiments.sweep import code_version

        _version_info = {"code": code_version(), "model": MODEL_VERSION}
    return _version_info


class _JobApp:
    """Shutdown, 503 pricing and the job API over one scheduler.

    Subclasses own the scheduler and answer their own ``/healthz`` and
    ``/v1/stats``; everything a submitter sees is shared.
    """

    def __init__(self, scheduler: _JobScheduler):
        self.scheduler = scheduler
        self.started_at = time.time()
        self._closing = threading.Event()
        self._drain_ends_at: float | None = None

    @property
    def closing(self) -> bool:
        """Whether the app has begun its shutdown sequence (503s)."""
        return self._closing.is_set()

    def begin_shutdown(self, drain_deadline: float = DEFAULT_DRAIN_DEADLINE) -> None:
        """Stop admitting: every later submission is answered 503.

        The first call pins the drain deadline; 503 ``Retry-After``
        hints count down against it.
        """
        if not self._closing.is_set():
            self._drain_ends_at = time.monotonic() + max(0.0, drain_deadline)
        self._closing.set()

    def drain_retry_after(self) -> int:
        """Seconds a 503'd client should wait before resubmitting."""
        return drain_retry_after(self._drain_ends_at)

    def close(self, *, drain_deadline: float = DEFAULT_DRAIN_DEADLINE) -> int:
        """Graceful shutdown: stop admitting, drain, release.

        Admission is cut first (503), accepted jobs get up to
        ``drain_deadline`` seconds to settle, then the app releases
        what it owns.  Returns the number of jobs stranded by the
        deadline (0 on a clean exit).
        """
        self.begin_shutdown(drain_deadline)
        stranded = self.scheduler.close(deadline=drain_deadline)
        self._release()
        return stranded

    def _release(self) -> None:
        """Release the app's own resources once the scheduler is closed."""

    # -- request handling (pure: dict in, (status, doc, headers) out) --

    def handle_get(self, path: str) -> tuple[int, dict[str, Any]]:
        """Route a GET ``path`` to ``(status, json_doc)``."""
        if path == "/v1/experiments":
            return 200, describe_catalog()
        if path.startswith("/v1/jobs/"):
            job = self.scheduler.get(path.removeprefix("/v1/jobs/"))
            if job is None:
                return 404, {"error": "no such job"}
            return 200, job.describe()
        return 404, {"error": f"no such endpoint {path!r}"}

    def handle_submit(
        self, body: dict[str, Any]
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        """Admit one POSTed job ``body``; ``(status, doc, extra_headers)``.

        202 queued, 200 done (``wait: true``), 4xx on bad/oversized/
        rejected submissions — 429 carries a ``Retry-After`` header.
        A draining server answers 503: the client should resubmit to a
        live replica (or wait out the restart), not queue behind a
        deadline-bounded drain.
        """
        if self.closing:
            return (
                503,
                {"error": "server is draining; resubmit elsewhere"},
                {"Retry-After": str(self.drain_retry_after())},
            )
        tenant = body.get("tenant", DEFAULT_TENANT)
        if not isinstance(tenant, str) or not tenant:
            return 400, {"error": "'tenant' must be a non-empty string"}, {}
        try:
            spec = JobSpec.from_request(body)
            job = self.scheduler.submit(spec, tenant)
        except RejectedError as exc:
            return (
                exc.status,
                {"error": str(exc), "retry_after": exc.retry_after},
                {"Retry-After": str(int(exc.retry_after + 0.5) or 1)},
            )
        except ServiceError as exc:
            return exc.status, {"error": str(exc)}, {}
        if body.get("wait"):
            timeout = min(float(body.get("timeout", MAX_WAIT_SECONDS)), MAX_WAIT_SECONDS)
            if not job.wait(timeout):
                return 202, job.describe(), {}
            return 200, job.describe(), {}
        return 202, job.describe(), {}


class ServiceApp(_JobApp):
    """Scheduler + cache + catalog behind one handler-friendly facade."""

    scheduler: Scheduler

    def __init__(
        self,
        cache_dir: str,
        *,
        backend: str = "process:2",
        cap_bytes: int | None = None,
        workers: int = 2,
        queue_cap: int = 8,
        max_points: int = 512,
        max_batch: int = 64,
    ):
        self.cache = ResultCache(cache_dir, cap_bytes=cap_bytes)
        super().__init__(
            Scheduler(
                make_backend(backend),
                self.cache,
                workers=workers,
                queue_cap=queue_cap,
                max_points=max_points,
                max_batch=max_batch,
            )
        )

    def handle_get(self, path: str) -> tuple[int, dict[str, Any]]:
        """Route a GET ``path`` to ``(status, json_doc)``."""
        if path == "/healthz":
            return 200, {
                "status": "draining" if self.closing else "ok",
                "uptime_s": round(time.time() - self.started_at, 3),
                "cache": self.cache.stats(),
                "version": version_info(),
            }
        if path == "/v1/stats":
            return 200, {
                "cache": self.cache.stats(),
                "scheduler": self.scheduler.stats(),
                "version": version_info(),
            }
        return super().handle_get(path)


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON adapter over a job app (one per request)."""

    app: _JobApp  # set by make_server on the subclass
    verbose = False
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.verbose:  # pragma: no cover - log formatting only
            super().log_message(format, *args)

    def _reply(
        self, status: int, doc: dict[str, Any], headers: dict[str, str] | None = None
    ) -> None:
        payload = json.dumps(doc, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        status, doc = self.app.handle_get(self.path)
        self._reply(status, doc)

    def _body_bytes(self) -> bytes | None:
        """The raw request body, or None once a 400 is sent.

        ``Content-Length`` must be a plain non-negative integer: a
        negative length would read to EOF and hold this handler thread
        for as long as the client keeps the connection open.
        """
        length = self.headers.get("Content-Length", "0")
        if not (length.isascii() and length.isdigit()):
            self.close_connection = True  # the body's extent is unknown
            self._reply(400, {"error": "Content-Length must be an integer >= 0"})
            return None
        return self.rfile.read(int(length))

    def _json_body(self) -> dict[str, Any] | None:
        """The request's JSON object body, or None once a 400 is sent."""
        data = self._body_bytes()
        if data is None:
            return None
        try:
            body = json.loads(data or b"null")
        except (ValueError, RecursionError):
            self._reply(400, {"error": "request body must be valid JSON"})
            return None
        if not isinstance(body, dict):
            self._reply(400, {"error": "request body must be a JSON object"})
            return None
        return body

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path != "/v1/jobs":
            self._reply(404, {"error": f"no such endpoint {self.path!r}"})
            return
        body = self._json_body()
        if body is not None:
            self._reply(*self.app.handle_submit(body))


class _ServiceHTTPServer(ThreadingHTTPServer):
    # The stdlib default listen backlog (5) resets connections as soon
    # as more than five clients connect before the accept loop catches
    # up; a deep backlog queues such a burst instead of refusing it.
    request_queue_size = 1024


def make_server(
    app: ServiceApp, host: str = "127.0.0.1", port: int = 0, *, verbose: bool = False
) -> ThreadingHTTPServer:
    """Bind ``app`` to a threading HTTP server (``port=0``: ephemeral)."""
    handler = type("KsrServeHandler", (_Handler,), {"app": app, "verbose": verbose})
    return _ServiceHTTPServer((host, port), handler)
