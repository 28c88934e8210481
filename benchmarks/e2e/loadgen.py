"""Open- and closed-loop HTTP load over keep-alive connections.

The generator runs ``clients`` threads in one process, each owning one
persistent ``http.client`` connection, so connections never outnumber
threads.  The open loop is a fixed schedule of requests, each due at a
time offset from the start: a thread takes the next request, sleeps
until it is due and sends it.  Latency counts from the *due* time, so
a stalled request also charges the wait it imposes on the requests
queued behind it, and the lateness of every send is reported.
The closed loop has each thread send its next request as soon as the
previous one completes.  :func:`run_fresh` sends a batch one request
at a time, each on a new connection, to time the server's work without
the keep-alive transport in the way.

Inter-arrival gaps are exponential (Poisson arrivals) but stratified:
the ``n`` gaps of a schedule are the exponential distribution's ``n``
mid-quantiles in a seed-shuffled order.  Every seed therefore offers
the same rate and the same gap distribution; seeds differ only in the
order of the gaps and in which keys are requested.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

__all__ = [
    "Request", "Record", "poisson_schedule", "run_open_loop", "run_fresh", "run_closed_loop",
    "percentile", "tail_quantile",
]

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


@dataclass(frozen=True)
class Request:
    """One request of a schedule: its id, JSON body and due offset (s)."""

    rid: str
    body: dict[str, Any]
    due: float = 0.0


@dataclass
class Record:
    """What happened to one request (times are ``perf_counter`` seconds)."""

    rid: str
    body: dict[str, Any]
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    doc: dict[str, Any] | None = None
    error: str = ""
    failed: bool = False

    @property
    def latency_ms(self) -> float:
        """Due-to-done milliseconds; a failed request counts as +inf."""
        return math.inf if self.failed else (self.done - self.due) * 1e3

    @property
    def lag_ms(self) -> float:
        """How late the generator sent this request."""
        return (self.sent - self.due) * 1e3


def poisson_schedule(rng: random.Random, n: int, rate: float) -> list[float]:
    """Due offsets (s) of ``n`` arrivals at ``rate`` per second."""
    gaps = [-math.log(1.0 - (i + 0.5) / n) / rate for i in range(n)]
    rng.shuffle(gaps)
    return list(itertools.accumulate(gaps))


class _Client:
    """One thread's keep-alive connection; reopened after a transport error."""

    def __init__(self, host: str, port: int, timeout: float, opened: list[int]):
        self.host, self.port, self.timeout = host, port, timeout
        self._opened = opened
        self._conn: http.client.HTTPConnection | None = None

    def send(self, record: Record) -> None:
        payload = json.dumps({**record.body, "rid": record.rid}).encode("utf-8")
        record.sent = time.perf_counter()
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(self.host, self.port,
                                                        timeout=self.timeout)
                self._opened.append(1)
            self._conn.request("POST", "/v1/jobs", body=payload,
                               headers={"Content-Type": "application/json"})
            response = self._conn.getresponse()
            raw = response.read()
            record.done = time.perf_counter()
            record.status = response.status
            record.doc = json.loads(raw)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            record.done = time.perf_counter()
            record.error = f"{type(exc).__name__}: {exc}"
            self.close()
        record.failed = record.status != 200 or (record.doc or {}).get("status") != "done"

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _run_threads(clients: int, target: Callable[[_Client], None], host: str, port: int,
                 timeout: float) -> int:
    """Run ``target`` on ``clients`` threads; returns connections opened."""
    opened: list[int] = []
    conns = [_Client(host, port, timeout, opened) for _ in range(clients)]
    threads = [threading.Thread(target=target, args=(c,), daemon=True) for c in conns]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for conn in conns:
        conn.close()
    return len(opened)


def run_open_loop(host: str, port: int, requests: Sequence[Request], *, clients: int,
                  timeout: float = 60.0, start: float | None = None) -> tuple[list[Record], int]:
    """Send ``requests`` at their due offsets; returns records and connections opened."""
    t0 = (time.perf_counter() + 0.05) if start is None else start
    records = [Record(r.rid, r.body, t0 + r.due) for r in requests]
    cursor = iter(records)
    lock = threading.Lock()

    def worker(client: _Client) -> None:
        while True:
            with lock:
                record = next(cursor, None)
            if record is None:
                return
            delay = record.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            client.send(record)

    opened = _run_threads(clients, worker, host, port, timeout)
    return records, opened


def run_fresh(host: str, port: int, requests: Sequence[Request], *,
              timeout: float = 60.0, gap: float = 0.0) -> list[Record]:
    """Send ``requests`` one at a time, each on a connection of its own.

    ``gap`` seconds pass before each request, so that work the server
    does after answering (replication, logging) does not overlap it.
    """
    records = []
    for request in requests:
        time.sleep(gap)
        client = _Client(host, port, timeout, [])
        record = Record(request.rid, request.body, time.perf_counter())
        client.send(record)
        client.close()
        records.append(record)
    return records


def run_closed_loop(host: str, port: int, streams: Sequence[Iterator[Request]], *,
                    seconds: float, timeout: float = 60.0) -> tuple[list[Record], int]:
    """Each thread sends from its own stream back to back for ``seconds``."""
    stop = time.perf_counter() + seconds
    per_thread: list[list[Record]] = [[] for _ in streams]
    sources = iter(zip(streams, per_thread))
    lock = threading.Lock()

    def worker(client: _Client) -> None:
        with lock:
            stream, out = next(sources)
        while time.perf_counter() < stop:
            request = next(stream)
            record = Record(request.rid, request.body, time.perf_counter())
            client.send(record)
            out.append(record)

    opened = _run_threads(len(streams), worker, host, port, timeout)
    return [r for records in per_thread for r in records], opened


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by the nearest-rank rule; +inf sorts last."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    # The epsilon keeps q = k/n on rank k despite float rounding.
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_quantile(n: int) -> float:
    """The highest quantile with at least :data:`TAIL_SAMPLES` samples beyond it."""
    if n <= TAIL_SAMPLES:
        raise ValueError(f"need more than {TAIL_SAMPLES} samples, got {n}")
    return (n - TAIL_SAMPLES) / n
