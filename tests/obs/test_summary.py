"""Tests for the terminal summary and the service-facing capture digest."""

from __future__ import annotations

import functools
import json

from repro.experiments.locks import measure_lock
from repro.obs import ObsSpec, capture_summary, render_summary


@functools.lru_cache(maxsize=None)
def _capture():
    """One small traced fig3 point, computed once per test process."""
    cap = measure_lock("rw", 2, 0.5, ops=6, seed=11, obs=ObsSpec()).capture
    return cap


class TestCaptureSummary:
    def test_json_safe(self):
        doc = capture_summary(_capture())
        round_tripped = json.loads(json.dumps(doc))
        assert round_tripped == doc

    def test_carries_the_analysis_channels(self):
        doc = capture_summary(_capture())
        assert doc["n_cells"] == 2
        assert doc["sim_seconds"] > 0
        assert doc["totals"]["ring_transactions"] > 0
        assert "subcache_miss_rate" in doc["derived"]
        assert "subpages" in doc["directory"]
        assert "peak_ring_utilization" in doc

    def test_zero_fault_capture_reports_zero_faults(self):
        doc = capture_summary(_capture())
        assert all(v == 0 for v in doc["faults"].values())

    def test_equal_captures_summarise_identically(self):
        a = measure_lock("rw", 2, 0.5, ops=6, seed=11, obs=ObsSpec()).capture
        b = measure_lock("rw", 2, 0.5, ops=6, seed=11, obs=ObsSpec()).capture
        assert capture_summary(a) == capture_summary(b)

    def test_summary_keys_sorted_for_determinism(self):
        doc = capture_summary(_capture())
        for field in ("totals", "derived", "directory", "faults"):
            assert list(doc[field]) == sorted(doc[field])


class TestRenderSummary:
    def test_render_mentions_label_and_table(self):
        text = render_summary([_capture()])
        assert "Machine-wide observability summary" in text
        assert _capture().label in text
