"""Generator behaviour: schedules, due-time latency, tails, connection count."""

from __future__ import annotations

import json
import math
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from benchmarks.e2e.loadgen import (
    TAIL_SAMPLES, Record, Request, percentile, poisson_schedule, run_closed_loop,
    run_open_loop, tail_quantile,
)
from benchmarks.e2e.serveload import make_plan
from benchmarks.e2e.workloads import WORKLOADS


class StubServer:
    """Keep-alive JSON server that stalls on chosen request ids."""

    def __init__(self, stall_s: dict[str, float] | None = None):
        stub = self
        self.stall_s = stall_s or {}
        self.open_now = self.open_max = self.opened = 0
        self.lock = threading.Lock()

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def setup(self):
                super().setup()
                with stub.lock:
                    stub.opened += 1
                    stub.open_now += 1
                    stub.open_max = max(stub.open_max, stub.open_now)

            def finish(self):
                super().finish()
                with stub.lock:
                    stub.open_now -= 1

            def log_message(self, *args):
                pass

            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                time.sleep(stub.stall_s.get(body["rid"], 0.0))
                payload = json.dumps({"status": "done", "result": {}}).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


@pytest.fixture
def stub():
    servers: list[StubServer] = []

    def make(**kwargs):
        servers.append(StubServer(**kwargs))
        return servers[-1]

    yield make
    for server in servers:
        server.close()


def test_schedule_is_a_function_of_the_seed():
    a = poisson_schedule(random.Random(5), 200, 12.0)
    assert a == poisson_schedule(random.Random(5), 200, 12.0)
    assert a != poisson_schedule(random.Random(6), 200, 12.0)
    assert a == sorted(a)
    assert 200 / a[-1] == pytest.approx(12.0, rel=0.05)
    spec = WORKLOADS["serve-warm"]
    first, again = make_plan(spec, 3, 22), make_plan(spec, 3, 22)
    assert [(r.rid, r.body, r.due) for r in first.open] == \
        [(r.rid, r.body, r.due) for r in again.open]
    assert [next(s).body for s in first.closed] == [next(s).body for s in again.closed]


def test_batch_passes_repeat_the_same_work_at_each_position():
    spec = WORKLOADS["fleet-cold"]
    plan = make_plan(spec, 3, 22)
    assert len(plan.batches) == spec.batch_passes
    keys = [[r.body["params"]["seed"] for r in batch] for batch in plan.batches]
    warm = {r.body["params"]["seed"] for r in plan.warm}
    fresh = set()
    for position in zip(*keys):
        if position[0] in warm:  # a hit on the same key in every pass
            assert set(position) == {position[0]}
        else:  # a miss on a new key in every pass
            assert len(set(position)) == len(position) and not warm & set(position)
            fresh |= set(position)
    assert len(fresh) == round(spec.fresh_share * spec.batch) * spec.batch_passes
    assert not fresh & {r.body["params"]["seed"] for r in plan.open}


def test_latency_counts_from_the_due_time(stub):
    server = stub(stall_s={"r0": 0.3})
    requests = [Request(f"r{i}", {}, due=0.05 * i) for i in range(3)]
    records, _ = run_open_loop("127.0.0.1", server.port, requests, clients=1)
    stalled, queued, last = records
    assert stalled.latency_ms >= 300
    # r1 was due at 50 ms but could only be sent after r0 returned.
    assert queued.lag_ms >= 200
    assert queued.latency_ms >= 250
    assert queued.latency_ms > (queued.done - queued.sent) * 1e3 + 200
    assert last.latency_ms >= 200


def test_failures_sort_as_infinity():
    failed = Record("x", {}, due=0.0, done=0.001, failed=True)
    assert failed.latency_ms == math.inf
    values = [1.0] * 20 + [failed.latency_ms]
    assert percentile(values, 1.0) == math.inf
    assert percentile(values, 0.5) == 1.0
    assert percentile(values, tail_quantile(len(values))) == 1.0


@pytest.mark.parametrize("n", [11, 50, 168, 204, 400])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    values = list(range(n))
    q = tail_quantile(n)
    assert sum(1 for v in values if v > percentile(values, q)) == TAIL_SAMPLES
    # Any higher quantile leaves fewer than ten beyond.
    assert sum(1 for v in values if v > percentile(values, q + 1.0 / n)) < TAIL_SAMPLES
    with pytest.raises(ValueError):
        tail_quantile(TAIL_SAMPLES)


def test_connections_never_exceed_threads(stub):
    server = stub()
    requests = [Request(f"r{i}", {}, due=0.002 * i) for i in range(40)]
    records, opened = run_open_loop("127.0.0.1", server.port, requests, clients=2)
    assert all(not r.failed for r in records)
    assert opened == 2 and server.opened == 2 and server.open_max <= 2

    def stream(prefix):
        i = 0
        while True:
            yield Request(f"{prefix}{i}", {})
            i += 1

    closed, opened = run_closed_loop("127.0.0.1", server.port,
                                     [stream("a"), stream("b")], seconds=0.3)
    assert closed and all(not r.failed for r in closed)
    assert opened == 2 and server.opened == 4 and server.open_max <= 2
