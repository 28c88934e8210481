"""In-memory spans at layer boundaries, exported as a Chrome trace.

A span records its name, start, end, parent span and request id.  The
parent is the innermost open span on the same thread, or an explicit
one handed across threads or processes (:meth:`Recorder.bind`).  Spans
stay in memory until the run ends; :func:`chrome_trace` turns them into
the trace-event format ``repro.obs.validate_chrome_trace`` checks.

Times come from ``time.perf_counter``, which on Linux reads the same
monotonic clock in every process, so spans recorded by the server and
by the load generator share one time axis.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from typing import Any, Callable, Iterable

__all__ = ["Recorder", "chrome_trace", "layer_summary", "self_times", "spans_from_trace"]


class Recorder:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.rid = None
            local.parent = None
        return local

    def current_rid(self) -> str | None:
        """Request id of the innermost open span (or bound on this thread)."""
        local = self._state()
        return local.stack[-1]["rid"] if local.stack else local.rid

    def current_id(self) -> int | None:
        """Id of the innermost open span on this thread, if any."""
        local = self._state()
        return local.stack[-1]["id"] if local.stack else local.parent

    def bind(self, rid: str | None, parent: int | None = None) -> None:
        """Set the request id and parent for spans opened at top level here."""
        local = self._state()
        local.rid, local.parent = rid, parent

    def open(self, name: str, rid: str | None = None,
             parent: int | None = None) -> dict[str, Any]:
        """Start a span on this thread; close it with :meth:`close`.

        Request id and parent default to those of the innermost open
        span (or what :meth:`bind` set on this thread).
        """
        local = self._state()
        span = {
            "id": next(self._ids),
            "name": name,
            "rid": rid if rid is not None else self.current_rid(),
            "parent": parent if parent is not None else self.current_id(),
            "tid": threading.get_ident(),
            "start": time.perf_counter(),
            "end": None,
        }
        local.stack.append(span)
        return span

    def close(self, span: dict[str, Any]) -> None:
        """End ``span`` (the innermost open span of this thread)."""
        span["end"] = time.perf_counter()
        self._state().stack.pop()
        with self._lock:
            self.spans.append(span)

    def add(self, name: str, start: float, end: float, rid: str | None) -> None:
        """Record a span measured elsewhere (e.g. queue wait between threads)."""
        span = {"id": next(self._ids), "name": name, "rid": rid, "parent": None,
                "tid": threading.get_ident(), "start": start, "end": end}
        with self._lock:
            self.spans.append(span)

    def wrap(self, owner: Any, attr: str, name: str,
             rid_of: Callable[..., str | None] | None = None) -> None:
        """Replace ``owner.attr`` by a version that records a ``name`` span.

        ``rid_of(*args, **kwargs)`` picks the request id out of the
        call's arguments; without it the span inherits the current one.
        """
        inner = getattr(owner, attr)
        recorder = self

        @functools.wraps(inner)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = recorder.open(name, rid_of(*args, **kwargs) if rid_of else None)
            try:
                return inner(*args, **kwargs)
            finally:
                recorder.close(span)

        setattr(owner, attr, traced)

    def snapshot(self) -> list[dict[str, Any]]:
        """A copy of the closed spans so far."""
        with self._lock:
            return list(self.spans)


def chrome_trace(spans: Iterable[dict[str, Any]], *, pid: int, label: str,
                 other: dict[str, Any] | None = None) -> dict[str, Any]:
    """Spans as a Chrome trace document (one process, one track per thread)."""
    spans = list(spans)
    tids: dict[int, int] = {}
    for span in spans:
        tids.setdefault(span["tid"], len(tids))
    events: list[dict[str, Any]] = [
        {"ph": "M", "pid": pid, "tid": 0, "name": "process_name", "args": {"name": label}},
    ]
    for ident, tid in tids.items():
        events.append({"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                       "args": {"name": f"thread {tid}"}})
    for span in spans:
        events.append({
            "ph": "X", "pid": pid, "tid": tids[span["tid"]], "name": span["name"],
            "cat": "layer", "ts": span["start"] * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
            "args": {"id": span["id"], "parent": span["parent"], "rid": span["rid"]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other or {}}


def spans_from_trace(doc: dict[str, Any]) -> list[dict[str, Any]]:
    """Recover spans (seconds) from the ``X`` events of a Chrome trace."""
    return [
        {"id": ev["args"]["id"], "name": ev["name"], "rid": ev["args"]["rid"],
         "parent": ev["args"]["parent"], "tid": ev["tid"],
         "start": ev["ts"] / 1e6, "end": (ev["ts"] + ev["dur"]) / 1e6}
        for ev in doc["traceEvents"] if ev.get("ph") == "X"
    ]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children on other threads count too (a route span's parallel RPCs),
    clipped to the parent's interval.
    """
    by_id = {span["id"]: span for span in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None:
            children.setdefault(parent["id"], []).append(
                (max(span["start"], parent["start"]), min(span["end"], parent["end"]))
            )
    return {
        span["id"]: max(0.0, span["end"] - span["start"]
                        - _covered([c for c in children.get(span["id"], []) if c[1] > c[0]]))
        for span in spans
    }


def layer_summary(spans: list[dict[str, Any]], layers: Iterable[str]) -> dict[str, dict]:
    """``layer -> {count, busy_s, p50_ms}`` over spans named after layers.

    ``busy_s`` sums self times; ``p50_ms`` is the median self time.
    """
    own = self_times(spans)
    out = {}
    for layer in layers:
        times = [own[span["id"]] for span in spans if span["name"] == layer]
        out[layer] = {
            "count": len(times),
            "busy_s": sum(times),
            "p50_ms": statistics.median(times) * 1e3 if times else 0.0,
        }
    return out
