"""Service workload child: ``ksr-serve`` under a fixed-rate open loop.

Run by :mod:`benchmarks.e2e.cli` in a fresh interpreter::

    python -m benchmarks.e2e.serveload --workload serve-warm --seed 0 \\
        --trace 0 --work DIR --result FILE [--tiny]

The server is a real ``python -m repro.service.cli --port 0`` process
(``--fleet N`` for the fleet) with its cache in a fresh directory.  A
plain run starts it ``SETUP_SPAWNS`` times, timing set-up (spawn until
``/healthz`` answers 200) each time, and keeps the last one.  That
server gets, one request at a time on a new connection each:

1. the cold batch: every warm key once;
2. ``batch_passes`` passes of a ``batch`` of requests in the
   workload's mix: a position that repeats a warm key repeats the same
   key in every pass, a fresh position asks for a new key each pass.
   ``wall_s`` takes each position at its median over the passes and
   sums them.  Each request waits ``BATCH_GAP_S`` before it is sent.

then, on two keep-alive connections:

3. the open loop: 12 requests per second for the run's window
   (``run_seconds``) minus the closed loop, latency counted from each
   request's due time;
4. the closed loop: ``closed_s`` seconds back to back; ``sat_rps``
   is the completion rate after its first second.

Afterwards every key must have been answered byte-identically, and
``verify_keys`` sampled keys are re-executed inline and compared with
the served payloads.  The server runs pinned to the first vCPU and this
generator to the last.  Every time of a plain run except ``sat_rps`` is
scaled to the nominal host by a
:class:`~benchmarks.e2e.hostspeed.HostSpeed` sampler on the server's
vCPU that runs throughout (see :mod:`benchmarks.e2e.hostspeed`); the
report keeps the unscaled values.  A traced run serves the cold batch and the
batch passes on a plain server (for ``trace.overhead_x``), then both
again, a warm re-run of the cold batch and both loops on a server
started through :mod:`benchmarks.e2e.launcher`.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.experiments.sweep import SweepRunner
from repro.obs import validate_chrome_trace
from repro.service.jobs import JobSpec

from benchmarks.e2e.hostspeed import HostSpeed
from benchmarks.e2e.launcher import COUNTED_PHASES
from benchmarks.e2e.layers import SERVICE_LAYERS, SIM_LAYERS
from benchmarks.e2e.loadgen import (
    Record, Request, percentile, poisson_schedule, run_closed_loop, run_fresh, run_open_loop,
    tail_quantile,
)
from benchmarks.e2e.spans import layer_summary, self_times, spans_from_trace
from benchmarks.e2e.workloads import (
    CLIENTS, RATE, SETUP_SPAWNS, WORKLOADS, ServeWorkload, child_args, median_by_position,
    window,
)

__all__ = ["Plan", "make_plan", "verify", "main"]

ROOT = Path(__file__).resolve().parents[2]
#: Latency limit on the open loop's tail percentile.
LATENCY_LIMIT_MS = 250.0
#: Pause before each request of a batch pass (s): a fleet miss
#: replicates after answering, and the next request should not pay it.
BATCH_GAP_S = 0.015
#: Layers the traced server records as spans (``http`` is derived).
SERVER_LAYERS = SERVICE_LAYERS[1:]
_URL = re.compile(r"listening on http://([0-9.]+):(\d+)")


class Server:
    """One server process pinned to ``cpus``, its log in ``workdir``.

    The processes it starts (the fleet's workers) inherit the pinning.
    """

    def __init__(self, argv: list[str], workdir: Path, cpus: set[int]):
        workdir.mkdir(parents=True, exist_ok=True)
        self.log_path = workdir / "server.log"
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.started = time.perf_counter()
        # Unbuffered, so the "listening on" line reaches the log at once.
        self.proc = subprocess.Popen(argv, stdout=self._log, stderr=subprocess.STDOUT,
                                     env={**os.environ, "PYTHONUNBUFFERED": "1"}, cwd=ROOT)
        os.sched_setaffinity(self.proc.pid, cpus)
        self.host = "127.0.0.1"
        self.port = 0

    def _alive_until(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"server exited early:\n{self.log_path.read_text()}")
        if time.perf_counter() > deadline:
            raise TimeoutError(f"server not ready:\n{self.log_path.read_text()}")

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from spawn until ``GET /healthz`` answers 200."""
        deadline = self.started + timeout
        while True:
            found = _URL.search(self.log_path.read_text())
            if found:
                self.host, self.port = found.group(1), int(found.group(2))
                break
            self._alive_until(deadline)
            time.sleep(0.002)
        while True:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return time.perf_counter() - self.started
            except (OSError, http.client.HTTPException):
                pass
            finally:
                conn.close()
            self._alive_until(deadline)
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1))
        return kb / 1024

    def stop(self, timeout: float = 105.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it does not exit.

        The default outlasts the slowest drain the default flags allow
        (a 10 s listener join, then the 30 s drain deadline for the
        coordinator and for each fleet worker), so that a traced server
        always lives to write its trace.
        """
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self._log.close()


@dataclass
class Plan:
    """A seed's requests: cold batch, batch passes, open loop, closed-loop streams."""

    warm: list[Request]
    batches: list[list[Request]]
    open: list[Request]
    closed: list[Iterator[Request]]


def point_body(spec: ServeWorkload, key: int) -> dict[str, Any]:
    return {"kind": "point", "params": {"seed": key, **spec.point}, "wait": True}


def _closed_stream(spec: ServeWorkload, rng: random.Random, warm_keys: list[int],
                   fresh_base: int, prefix: str) -> Iterator[Request]:
    for i in itertools.count():
        key = fresh_base + i if rng.random() < spec.fresh_share else rng.choice(warm_keys)
        yield Request(f"{prefix}{i}", point_body(spec, key))


def make_plan(spec: ServeWorkload, seed: int, seconds: float) -> Plan:
    """All requests of a run, a pure function of the workload and seed.

    Fresh keys are point seeds never used by the warm keys or by one
    another: the open loop draws from ``[10**6, 2*10**6)``, closed-loop
    thread ``t`` counts up from ``(t + 2) * 10**6`` and the batch
    passes draw from ``[10**7, 2*10**7)``.
    """
    rng = random.Random(seed)
    warm_keys = rng.sample(range(1, 10**6), spec.warm_keys)
    n_open = max(1, int(RATE * (seconds - spec.closed_s)))
    dues = poisson_schedule(rng, n_open, RATE)
    fresh_at = set(rng.sample(range(n_open), round(spec.fresh_share * n_open)))
    fresh = iter(rng.sample(range(10**6, 2 * 10**6), len(fresh_at)))
    opened = [
        Request(f"o{i}", point_body(spec, next(fresh) if i in fresh_at else rng.choice(warm_keys)),
                due)
        for i, due in enumerate(dues)
    ]
    closed = [
        _closed_stream(spec, random.Random(seed * 1000 + t), warm_keys, (t + 2) * 10**6,
                       f"c{t}-")
        for t in range(CLIENTS)
    ]
    warm = [Request(f"w{i}", point_body(spec, key)) for i, key in enumerate(warm_keys)]
    batch_fresh = set(rng.sample(range(spec.batch), round(spec.fresh_share * spec.batch)))
    batch_keys = [rng.choice(warm_keys) for _ in range(spec.batch)]
    fresh = iter(rng.sample(range(10**7, 2 * 10**7), len(batch_fresh) * spec.batch_passes))
    batches = [
        [Request(f"b{n}-{i}", point_body(spec, next(fresh) if i in batch_fresh else key))
         for i, key in enumerate(batch_keys)]
        for n in range(spec.batch_passes)
    ]
    return Plan(warm, batches, opened, closed)


def _key(record: Record) -> str:
    return json.dumps(record.body["params"], sort_keys=True)


def _payload(record: Record) -> str:
    return json.dumps((record.doc or {}).get("result"), sort_keys=True)


def verify(records: list[Record], seed: int, sample: int) -> list[str]:
    """Check served payloads; marks offending records failed, returns problems.

    Every answer to one key must be byte-identical, and ``sample``
    keys (seeded) are re-executed inline and compared with the served
    payload.
    """
    problems: list[str] = []
    by_key: dict[str, list[Record]] = {}
    for record in records:
        by_key.setdefault(_key(record), []).append(record)
    for key, group in by_key.items():
        served = {_payload(r) for r in group if not r.failed}
        if len(served) > 1:
            problems.append(f"{key}: {len(served)} different payloads for one key")
            for record in group:
                record.failed = True
    for key in random.Random(seed + 1).sample(sorted(by_key), min(sample, len(by_key))):
        group = by_key[key]
        expected = json.dumps(JobSpec.from_request(group[0].body).execute(SweepRunner()),
                              sort_keys=True)
        for record in group:
            if not record.failed and _payload(record) != expected:
                problems.append(f"{key}: served payload differs from inline execution")
                record.failed = True
    return problems


def _server_argv(spec: ServeWorkload, cache: Path, trace_out: Path | None) -> list[str]:
    args = ["--port", "0", "--cache-dir", str(cache)]
    if spec.fleet:
        args += ["--fleet", str(spec.fleet)]
    if trace_out is None:
        return [sys.executable, "-m", "repro.service.cli", *args]
    return [sys.executable, "-m", "benchmarks.e2e.launcher", str(trace_out), *args]


def batch_s(batches: list[list[Record]], host: HostSpeed | None = None) -> float:
    """Seconds to serve a batch: each position's median over ``batches``, summed.

    The ``i``-th request of every batch is the same work: a hit on the
    same warm key, or a miss on a fresh key of the same point size.  A
    failed request counts as infinitely slow.  With ``host``, each
    request's time is first scaled to the nominal host.
    """
    def seconds(record: Record) -> float:
        if record.failed:
            return math.inf
        if host is None:
            return record.done - record.due
        return host.scaled(record.due, record.done)

    return sum(median_by_position([[seconds(r) for r in batch] for batch in batches]))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def traced_metrics(doc: dict[str, Any], records: list[Record], window_s: float) -> dict:
    """Per-layer metrics from the traced server's spans and the client records."""
    spans = spans_from_trace(doc)
    layers = layer_summary(spans, SERVER_LAYERS)
    handled = {s["rid"]: s["end"] - s["start"] for s in spans if s["name"] == "handle_submit"}
    http_ms = [(r.done - r.sent - handled[r.rid]) * 1e3
               for r in records if r.rid in handled and not r.error]
    layers["http"] = {"count": len(http_ms), "busy_s": sum(http_ms) / 1e3,
                      "p50_ms": statistics.median(http_ms) if http_ms else 0.0}
    own = self_times(spans)
    counted_compute = sum(own[s["id"]] for s in spans
                          if s["name"] == "compute" and (s["rid"] or " ")[0] in COUNTED_PHASES)
    other = doc["otherData"]
    counters = other["counters"]
    caches, schedulers = other["caches"], other["schedulers"]
    hits = sum(c["hits"] for c in caches)
    return {
        "metrics": {
            **counters,
            "sim.host_us_per_event": _ratio(counted_compute * 1e6, counters["sim.events"]),
            # The server is not profiled: simulator layers are measured
            # on the simulator workloads only.
            **{f"{name}.calls": 0 for name in SIM_LAYERS},
            **{f"{name}.self_pct": 0.0 for name in SIM_LAYERS},
            **{f"{name}.count": layers[name]["count"] for name in SERVICE_LAYERS},
            **{f"{name}.busy_pct": 100 * layers[name]["busy_s"] / window_s
               for name in SERVICE_LAYERS},
            **{f"{name}.p50_ms": layers[name]["p50_ms"]
               for name in ("cache_read", "cache_write", "compute")},
            "cache.hit_ratio": _ratio(hits, hits + sum(c["misses"] for c in caches)),
            "coalesce.ratio": _ratio(sum(s["coalesced"] for s in schedulers),
                                     sum(s["submitted"] for s in schedulers)),
            "fleet.remote_hit_ratio": _ratio(sum(c["remote_hits"] for c in caches), hits),
        },
        "report": {
            **{f"{name}.busy_s": layers[name]["busy_s"] for name in SERVICE_LAYERS},
            **{f"{name}.p50_ms": layers[name]["p50_ms"] for name in SERVICE_LAYERS},
        },
    }


def _client_events(records: list[Record]) -> list[dict[str, Any]]:
    """The generator's requests as Chrome trace events (process 0)."""
    events: list[dict[str, Any]] = [
        {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
         "args": {"name": "load generator"}},
    ]
    for record in records:
        events.append({
            "ph": "X", "pid": 0, "tid": 0, "name": "request", "cat": "client",
            "ts": record.sent * 1e6, "dur": (record.done - record.sent) * 1e6,
            "args": {"rid": record.rid, "status": record.status, "lag_ms": record.lag_ms},
        })
    return events


def main(argv: list[str] | None = None) -> int:
    args = child_args(argv, __doc__.splitlines()[0])
    spec = WORKLOADS[args.workload].sized(args.tiny)
    plan = make_plan(spec, args.seed, window(args.tiny))
    caches = (args.work / f"cache-{i}" for i in itertools.count())
    out: dict[str, Any] = {"workload": args.workload, "seed": args.seed}
    servers: list[Server] = []
    # The server gets the first vCPU and this load generator the last, so
    # that neither waits for the other's core (one vCPU: they share it).
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})

    def start(trace_out: Path | None = None) -> Server:
        cache = next(caches)
        servers.append(Server(_server_argv(spec, cache, trace_out), cache.with_suffix(".run"),
                              {cpus[0]}))
        return servers[-1]

    def batches(server: Server) -> tuple[list[Record], list[list[Record]]]:
        """The cold batch, then the batch passes, one request at a time."""
        cold = run_fresh(server.host, server.port, plan.warm)
        return cold, [run_fresh(server.host, server.port, batch, gap=BATCH_GAP_S)
                      for batch in plan.batches]

    rerun: list[Record] = []
    plain_cold: list[Record] = []
    plain_passes: list[list[Record]] = []
    host = HostSpeed(args.work, cpus[0])
    try:
        if not args.trace:
            host.start()
            setups = []
            for _ in range(SETUP_SPAWNS):
                if servers:
                    servers[-1].stop()
                server = start()
                setups.append((server.started, server.started + server.wait_ready()))
            phase_start = time.perf_counter()
            cold, passes = batches(server)
        else:
            plain = start()
            plain.wait_ready()
            plain_cold, plain_passes = batches(plain)
            plain.stop()
            server_trace = args.work / "server.trace.json"
            server = start(server_trace)
            server.wait_ready()
            phase_start = time.perf_counter()
            cold, passes = batches(server)
            rerun = run_fresh(server.host, server.port,
                              [Request("r" + r.rid[1:], r.body) for r in plan.warm])
        opened, open_conns = run_open_loop(server.host, server.port, plan.open,
                                           clients=CLIENTS)
        closed_start = time.perf_counter()
        closed, closed_conns = run_closed_loop(server.host, server.port, plan.closed,
                                               seconds=spec.closed_s)
        window_s = time.perf_counter() - phase_start
        rss_mb = server.peak_rss_mb()
    finally:
        for server_proc in servers:
            server_proc.stop()
        host.stop()

    # What the kept (in a traced run, the traced) server saw.
    served = cold + [r for batch in passes for r in batch] + rerun + opened + closed
    records = plain_cold + [r for batch in plain_passes for r in batch] + served
    problems = verify(records, args.seed, spec.verify_keys)
    latencies = [r.latency_ms for r in opened]
    lags = [r.lag_ms for r in opened]
    # Saturation rate: completions per second between the first and the
    # last completion after the closed loop's first second.
    warmup = min(1.0, spec.closed_s / 2)
    done = sorted(r.done for r in closed if not r.failed
                  and closed_start + warmup <= r.done <= closed_start + spec.closed_s)
    sat_rps = _ratio(len(done) - 1, done[-1] - done[0]) if done else 0.0
    tail_q = tail_quantile(len(latencies)) if len(latencies) > 10 else 0.5
    out["report"] = {
        "requests.open": len(opened),
        "requests.closed": len(closed),
        "connections": max(open_conns, closed_conns),
        f"lat_p{100 * tail_q:.1f}_ms": percentile(latencies, tail_q),
        "lat_limit_met": percentile(latencies, tail_q) <= LATENCY_LIMIT_MS,
        "gen.lag_p50_ms": percentile(lags, 0.5),
        "gen.lag_max_ms": max(lags),
    }
    refused = sum(1 for r in records if r.status in (429, 503))
    if not args.trace:
        scaled_ms = [r.latency_ms * host.factor(r.due, r.done) for r in opened]
        out["metrics"] = {
            "wall_s": batch_s(passes, host),
            "setup_s": statistics.median(host.scaled(*setup) for setup in setups),
            "peak_rss_mb": rss_mb,
            "lat_p50_ms": percentile(scaled_ms, 0.5),
            # The tail and the closed loop are paced by the client's
            # delayed-ACK timer (README), not by the host's speed: not scaled.
            "lat_p95_ms": percentile(latencies, 0.95),
            "sat_rps": sat_rps,
        }
        out["report"].update({
            "unscaled.wall_s": batch_s(passes),
            "unscaled.setup_s": statistics.median(end - start for start, end in setups),
            "unscaled.lat_p50_ms": percentile(latencies, 0.5),
            **host.report(),
        })
    else:
        if not server_trace.exists():
            raise RuntimeError(f"traced server wrote no trace:\n{server.log_path.read_text()}")
        doc = json.loads(server_trace.read_text())
        traced = traced_metrics(doc, served, window_s)
        out["metrics"] = {
            **traced["metrics"],
            "refused.count": refused,
            "sweep.warm_s": batch_s([rerun]),
            "trace.overhead_x": batch_s(passes) / batch_s(plain_passes),
        }
        out["report"].update(traced["report"])
        doc["traceEvents"].extend(_client_events(served))
        out["trace_problems"] = validate_chrome_trace(doc)[:20]
        if args.trace_file is not None:
            args.trace_file.parent.mkdir(parents=True, exist_ok=True)
            args.trace_file.write_text(json.dumps(doc))
            out["trace_file"] = str(args.trace_file)
    out["report"]["refused"] = refused
    out.update(attempted=len(records), failed=sum(r.failed for r in records),
               problems=problems[:20])
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
