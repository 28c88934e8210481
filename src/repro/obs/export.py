"""Exporters: Chrome-trace JSON and CSV.

The Chrome trace event format (the ``about:tracing`` / Perfetto JSON
schema) maps naturally onto the simulator: one *process* per captured
run, one *thread* per cell, complete (``"ph": "X"``) events for op
records, and counter (``"ph": "C"``) events for the bucketed
machine-wide series.  Timestamps are **simulated** microseconds.

Exports are deterministic by construction: captures are frozen
dataclasses, event lists are built in a fixed order, and JSON is
serialized with sorted keys and fixed separators — two equal captures
always serialize to identical bytes (pinned by
``tests/obs/test_trace_determinism.py``).
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.obs.probes import ObsCapture
from repro.obs.series import DERIVED_CHANNELS, RAW_CHANNELS

__all__ = [
    "chrome_trace_events",
    "export_chrome",
    "export_csv",
    "point_slug",
    "trace_sink",
    "validate_chrome_trace",
    "write_chrome_trace",
]

#: Series channels exported as Chrome counter tracks (the saturation
#: story told by the paper, kept small so traces stay loadable).
COUNTER_CHANNELS = (
    "events",
    "ops",
    "ring_tx",
    "ring_utilization",
    "slot_wait_fraction",
    "mean_slot_wait_cycles",
    "read_subcache_miss_rate",
    "read_remote_rate",
    "invalidations",
    "fault_corrupted",
    "fault_retries",
    "fault_timeouts",
    "fault_bypass_hops",
)


def chrome_trace_events(capture: ObsCapture, pid: int = 0) -> list[dict[str, Any]]:
    """Chrome trace events for one capture, as one trace *process*.

    Emits process/thread metadata, an ``X`` (complete) event per op
    record on the owning cell's thread track, and ``C`` (counter)
    events for the bucketed series.
    """
    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "name": "process_name",
            "args": {"name": capture.label},
        },
        {
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "name": "process_sort_index",
            "args": {"sort_index": pid},
        },
    ]
    cells_seen = sorted({r.cell_id for r in capture.records})
    for cell_id in cells_seen:
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": cell_id,
                "name": "thread_name",
                "args": {"name": f"cell {cell_id}"},
            }
        )
    for r in capture.records:
        args: dict[str, Any] = {"process": r.process}
        if r.addr is not None:
            args["addr"] = f"0x{r.addr:x}"
        if r.detail:
            args["detail"] = r.detail
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": r.cell_id,
                "ts": capture.us(r.time),
                "dur": capture.us(r.cycles),
                "name": r.kind,
                "cat": "op",
                "args": args,
            }
        )
    for channel in COUNTER_CHANNELS:
        for start, value in capture.view.channel(channel):
            events.append(
                {
                    "ph": "C",
                    "pid": pid,
                    "tid": 0,
                    "ts": capture.us(start),
                    "name": channel,
                    "cat": "series",
                    "args": {channel: value},
                }
            )
    return events


def export_chrome(captures: Sequence[ObsCapture]) -> str:
    """Serialize captures as one Chrome-trace JSON document (a string).

    Each capture becomes one trace process (``pid`` = its index).  The
    top-level ``otherData`` block carries per-capture metadata,
    including the dropped-record counts of capped traces, so truncation
    is always visible in the artifact itself.
    """
    events: list[dict[str, Any]] = []
    other: dict[str, Any] = {"generator": "ksr-trace (repro.obs)", "captures": []}
    for pid, capture in enumerate(captures):
        events.extend(chrome_trace_events(capture, pid=pid))
        other["captures"].append(
            {
                "pid": pid,
                "label": capture.label,
                "n_cells": capture.n_cells,
                "end_us": capture.us(capture.end_cycles),
                "records": len(capture.records),
                "dropped_records": capture.dropped_records,
                "directory": capture.directory,
                "meta": capture.meta,
            }
        )
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def validate_chrome_trace(doc: Any) -> list[str]:
    """Schema-check a parsed Chrome-trace document.

    Returns a list of problems (empty = valid).  Checks the subset of
    the trace-event format this package emits and viewers require:
    ``traceEvents`` array; every event carries ``ph``/``pid``/``tid``/
    ``name``; timed phases carry a numeric ``ts``; ``X`` events carry a
    numeric ``dur``; ``C`` and ``M`` events carry ``args``.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not an array"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("ph", "pid", "tid", "name"):
            if key not in ev:
                problems.append(f"{where}: missing {key!r}")
        ph = ev.get("ph")
        if ph in ("X", "B", "E", "C", "I"):
            if not isinstance(ev.get("ts"), (int, float)):
                problems.append(f"{where}: phase {ph!r} needs numeric 'ts'")
        if ph == "X" and not isinstance(ev.get("dur"), (int, float)):
            problems.append(f"{where}: 'X' event needs numeric 'dur'")
        if ph in ("C", "M") and not isinstance(ev.get("args"), dict):
            problems.append(f"{where}: phase {ph!r} needs 'args' object")
    return problems


def export_csv(capture: ObsCapture) -> str:
    """Serialize one capture's bucketed series as CSV.

    One row per bucket; the first column is the bucket start in
    simulated cycles, followed by every raw and derived channel.  A
    trailing comment block carries the machine totals so a lone CSV
    file still tells the whole story.
    """
    channels = (*RAW_CHANNELS, *DERIVED_CHANNELS)
    out = io.StringIO()
    out.write("bucket_start_cycles," + ",".join(channels) + "\n")
    by_channel = {name: dict(capture.view.channel(name)) for name in channels}
    starts = sorted({t for points in by_channel.values() for t in points})
    for start in starts:
        row = [repr(start)]
        row.extend(repr(by_channel[name].get(start, 0.0)) for name in channels)
        out.write(",".join(row) + "\n")
    out.write(f"# label,{capture.label}\n")
    out.write(f"# n_cells,{capture.n_cells}\n")
    out.write(f"# end_cycles,{capture.end_cycles!r}\n")
    out.write(f"# dropped_records,{capture.dropped_records}\n")
    for key in sorted(capture.totals):
        out.write(f"# total_{key},{capture.totals[key]!r}\n")
    return out.getvalue()


def point_slug(kwargs: dict[str, Any]) -> str:
    """A filesystem-safe, deterministic name for one sweep point.

    Built from the point's scalar keyword arguments (observability
    options and other non-scalars are skipped).
    """
    parts = []
    for key in sorted(kwargs):
        value = kwargs[key]
        if isinstance(value, (str, int, float, bool)):
            text = str(value).replace(".", "p")
            safe = "".join(c if c.isalnum() or c in "-p" else "-" for c in text)
            parts.append(f"{key}-{safe}")
    return "_".join(parts) or "point"


def write_chrome_trace(
    path: str | Path, captures: Iterable[ObsCapture]
) -> Path:
    """Write captures as a Chrome-trace JSON file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(export_chrome(list(captures)), encoding="utf-8")
    return path


def trace_sink(
    experiment_id: str, trace_dir: str | Path
) -> Callable[[int, dict[str, Any], Any], None]:
    """An ``on_result`` callback writing one Chrome trace per sweep point.

    Suitable for :meth:`repro.experiments.sweep.SweepRunner.map`: a
    point result whose ``.capture`` is set gets written to
    ``<trace_dir>/<experiment_id>_<point_slug>.trace.json``; an
    untraced point (no capture) is skipped.
    """
    root = Path(trace_dir)

    def sink(index: int, kwargs: dict[str, Any], result: Any) -> None:
        """Write the point's capture, if the result carries one."""
        capture = getattr(result, "capture", None)
        if capture is not None:
            name = f"{experiment_id.lower()}_{point_slug(kwargs)}.trace.json"
            write_chrome_trace(root / name, [capture])

    return sink
