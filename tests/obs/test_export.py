"""Tests for the Chrome-trace/CSV exporters and their schema checker."""

import functools
import json

import pytest

from repro.experiments.barriers import run_figure4
from repro.experiments.base import Point
from repro.experiments.locks import measure_lock, run_figure3
from repro.obs import (
    ObsSpec,
    chrome_trace_events,
    export_chrome,
    export_csv,
    point_slug,
    trace_sink,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.series import DERIVED_CHANNELS, RAW_CHANNELS


@functools.lru_cache(maxsize=None)
def _capture(max_records=None):
    """One small traced fig3 point, computed once per test process."""
    cap = measure_lock(
        "rw", 2, 0.5, ops=6, seed=11, obs=ObsSpec(max_records=max_records)
    ).capture
    return cap


class TestChromeExport:
    def test_document_passes_schema_check(self):
        doc = json.loads(export_chrome([_capture()]))
        assert validate_chrome_trace(doc) == []

    def test_event_population(self):
        cap = _capture()
        events = chrome_trace_events(cap, pid=3)
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == len(cap.records)
        assert all(e["pid"] == 3 for e in events)
        names = {e["name"] for e in events if e["ph"] == "M"}
        assert "process_name" in names and "thread_name" in names
        counters = {e["name"] for e in events if e["ph"] == "C"}
        assert "ring_utilization" in counters

    def test_timestamps_are_simulated_microseconds(self):
        cap = _capture()
        first = next(
            e
            for e in chrome_trace_events(cap)
            if e["ph"] == "X" and e["args"]["process"] == cap.records[0].process
        )
        assert first["ts"] == pytest.approx(
            cap.records[0].time / cap.clock_hz * 1e6
        )

    def test_multiple_captures_get_distinct_pids(self):
        doc = json.loads(export_chrome([_capture(), _capture()]))
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {0, 1}
        assert [c["pid"] for c in doc["otherData"]["captures"]] == [0, 1]

    def test_dropped_records_surface_in_other_data(self):
        doc = json.loads(export_chrome([_capture(max_records=10)]))
        (meta,) = doc["otherData"]["captures"]
        assert meta["records"] == 10
        assert meta["dropped_records"] > 0

    def test_export_is_byte_deterministic(self):
        cap = _capture()
        again = measure_lock("rw", 2, 0.5, ops=6, seed=11, obs=ObsSpec()).capture
        assert export_chrome([cap]) == export_chrome([again])

    def test_write_chrome_trace_creates_parents(self, tmp_path):
        out = write_chrome_trace(tmp_path / "a" / "b.trace.json", [_capture()])
        assert out.exists()
        assert validate_chrome_trace(json.loads(out.read_text())) == []


class TestSchemaChecker:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([1, 2]) != []
        assert validate_chrome_trace({"events": []}) != []

    def test_flags_missing_fields(self):
        doc = {"traceEvents": [{"ph": "X", "pid": 0, "tid": 0}]}
        problems = validate_chrome_trace(doc)
        assert any("'name'" in p for p in problems)
        assert any("'ts'" in p for p in problems)
        assert any("'dur'" in p for p in problems)

    def test_flags_counter_without_args(self):
        doc = {
            "traceEvents": [
                {"ph": "C", "pid": 0, "tid": 0, "name": "x", "ts": 1.0}
            ]
        }
        assert any("'args'" in p for p in validate_chrome_trace(doc))

    def test_flags_non_object_event(self):
        assert validate_chrome_trace({"traceEvents": ["nope"]}) != []


class TestCsvExport:
    def test_shape_and_totals(self):
        cap = _capture()
        text = export_csv(cap)
        lines = text.splitlines()
        header = lines[0].split(",")
        assert header[0] == "bucket_start_cycles"
        assert set(RAW_CHANNELS) <= set(header)
        assert set(DERIVED_CHANNELS) <= set(header)
        data = [ln for ln in lines[1:] if not ln.startswith("#")]
        assert len(data) == len(cap.view.channel("ops"))
        assert all(len(ln.split(",")) == len(header) for ln in data)
        assert f"# label,{cap.label}" in lines
        assert any(ln.startswith("# total_ring_transactions,") for ln in lines)

    def test_dropped_records_comment(self):
        text = export_csv(_capture(max_records=10))
        dropped = next(
            ln for ln in text.splitlines() if ln.startswith("# dropped_records,")
        )
        assert int(dropped.split(",")[1]) > 0

    def test_csv_is_deterministic(self):
        assert export_csv(_capture()) == export_csv(_capture())


class TestPointSlug:
    def test_scalars_only_and_safe(self):
        slug = point_slug(
            dict(kind="rw", n_procs=8, read_fraction=0.4, obs=ObsSpec(), fn=print)
        )
        assert slug == "kind-rw_n_procs-8_read_fraction-0p4"
        assert "/" not in slug and " " not in slug

    def test_empty_kwargs(self):
        assert point_slug({}) == "point"


class TestTraceSink:
    def test_writes_only_traced_results(self, tmp_path):
        sink = trace_sink("FIG9", tmp_path)
        sink(0, dict(n_procs=2), Point(1.25))  # untraced result: skipped
        sink(1, dict(n_procs=4), Point(1.25, capture=_capture()))
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["fig9_n_procs-4.trace.json"]
        doc = json.loads((tmp_path / files[0]).read_text())
        assert validate_chrome_trace(doc) == []


class TestTracedFigures:
    """A ``trace_dir`` run writes one valid trace per point, same table."""

    @pytest.mark.parametrize(
        "run, kwargs, points",
        [
            (run_figure3, dict(proc_counts=[2, 3], ops=3), 2 * 7),
            (run_figure4, dict(proc_counts=[2, 4], algorithms=["counter", "tree(M)"], reps=3), 4),
        ],
        ids=["fig3", "fig4"],
    )
    def test_one_valid_trace_per_point(self, tmp_path, run, kwargs, points):
        traced = run(trace_dir=str(tmp_path), **kwargs)
        files = sorted(tmp_path.iterdir())
        assert len(files) == points
        for path in files:
            assert validate_chrome_trace(json.loads(path.read_text())) == []
        assert traced.render() == run(**kwargs).render()
