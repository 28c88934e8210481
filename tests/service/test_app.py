"""End-to-end HTTP tests: a live ksr-serve instance on an ephemeral port."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service.app import ServiceApp, make_server


@pytest.fixture
def served(request, tmp_path):
    """A running server: inline backend (tests stay single-process)
    unless a test parametrizes the fixture with another backend spec."""
    backend = getattr(request, "param", "inline")
    app = ServiceApp(
        str(tmp_path / "cache"), backend=backend, workers=2, queue_cap=4
    )
    server = make_server(app, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield base, app
    server.shutdown()
    thread.join(timeout=10)
    app.close()


def get(base: str, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(base + path, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def post(base: str, body: dict, timeout: float = 600.0) -> tuple[int, dict, dict]:
    request = urllib.request.Request(
        base + "/v1/jobs",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), dict(err.headers)


class TestEndpoints:
    def test_healthz(self, served):
        base, _ = served
        status, doc = get(base, "/healthz")
        assert status == 200 and doc["status"] == "ok"

    def test_stats_shape(self, served):
        base, _ = served
        status, doc = get(base, "/v1/stats")
        assert status == 200
        assert "cache" in doc and "scheduler" in doc
        assert doc["cache"]["root"]

    def test_catalog_lists_experiments(self, served):
        base, _ = served
        status, doc = get(base, "/v1/experiments")
        assert status == 200
        assert set(doc["experiments"]) == {"fig2", "fig3", "fig4", "fig5"}
        assert "campaign" in doc and "point" in doc

    def test_unknown_endpoint_404(self, served):
        base, _ = served
        assert get(base, "/v1/nope")[0] == 404
        assert get(base, "/v1/jobs/job-999")[0] == 404

    def test_bad_json_400(self, served):
        base, _ = served
        request = urllib.request.Request(
            base + "/v1/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 400

    def test_unknown_kind_400(self, served):
        base, _ = served
        status, doc, _ = post(base, {"kind": "teleport"})
        assert status == 400 and "unknown job kind" in doc["error"]

    def test_tenant_is_validated_and_counted(self, served):
        base, _ = served
        status, doc, _ = post(base, {"kind": "point", "params": {"ops": 3}, "tenant": ""})
        assert status == 400 and "'tenant'" in doc["error"]
        status, doc, _ = post(
            base, {"kind": "point", "params": {"ops": 3}, "tenant": "alpha", "wait": True}
        )
        assert status == 200 and doc["tenant"] == "alpha"
        scheduler = get(base, "/v1/stats")[1]["scheduler"]
        assert scheduler["tenants"]["alpha"]["completed"] == 1
        assert scheduler["rejected_quota"] == 0


class TestStatusSurfaces:
    def test_healthz_reports_cache_and_version(self, served):
        base, app = served
        status, doc = get(base, "/healthz")
        assert status == 200
        cache = doc["cache"]
        assert cache["root"] == str(app.cache.root)
        for counter in ("entries", "shards", "evictions", "corrupt", "remote_hits"):
            assert counter in cache
        version = doc["version"]
        assert version["code"] and version["model"]

    def test_stats_carry_version(self, served):
        base, _ = served
        status, doc = get(base, "/v1/stats")
        assert status == 200
        assert doc["version"]["code"]
        assert doc["version"]["model"]


class TestGracefulShutdown:
    def test_draining_server_rejects_submissions_with_503(self, served):
        base, app = served
        app.begin_shutdown()
        status, doc = get(base, "/healthz")
        assert status == 200 and doc["status"] == "draining"
        status, doc, headers = post(base, {"kind": "point", "params": {"ops": 3}})
        assert status == 503
        assert "draining" in doc["error"]
        assert headers.get("Retry-After")

    def test_drain_retry_after_tracks_deadline(self, served):
        """Regression: the 503 Retry-After was a hardcoded 5 seconds.

        It must reflect the drain deadline actually remaining — a
        client told to come back in 5s against a 120s drain would just
        burn 24 rejected round-trips.
        """
        base, app = served
        app.begin_shutdown(drain_deadline=120)
        status, doc, headers = post(base, {"kind": "point", "params": {"ops": 3}})
        assert status == 503
        retry = int(headers["Retry-After"])
        assert 100 < retry <= 120, "must be derived from the real deadline"
        # begin_shutdown is latched: a later call cannot push it out
        app.begin_shutdown(drain_deadline=500)
        assert app.drain_retry_after() <= 120

    def test_drain_retry_after_floor_and_expiry(self):
        import time

        from repro.service.app import drain_retry_after

        assert drain_retry_after(None) == 1
        assert drain_retry_after(time.monotonic() - 10) == 1, "past deadline"
        assert drain_retry_after(time.monotonic() + 0.2) == 1, "floor is 1s"
        assert drain_retry_after(time.monotonic() + 4.2) in (4, 5)

    def test_close_drains_and_compacts(self, tmp_path):
        app = ServiceApp(str(tmp_path / "cache"), backend="inline", workers=2)
        from repro.service.jobs import JobSpec

        jobs = [
            app.scheduler.submit(
                JobSpec.from_request({"kind": "point", "params": {"ops": 3, "seed": i}})
            )
            for i in range(3)
        ]
        stranded = app.close(drain_deadline=120)
        assert stranded == 0
        assert all(job.status == "done" for job in jobs)
        assert app.closing


class TestJobs:
    def test_async_submit_then_poll(self, served):
        base, _ = served
        status, doc, _ = post(base, {"kind": "point", "params": {"ops": 3}})
        assert status == 202
        job_id = doc["job_id"]
        for _ in range(600):
            status, doc = get(base, f"/v1/jobs/{job_id}")
            if doc["status"] in ("done", "failed"):
                break
        assert doc["status"] == "done"
        assert doc["result"]["seconds"] > 0

    def test_wait_submit_completes_inline(self, served):
        base, _ = served
        status, doc, _ = post(
            base, {"kind": "point", "params": {"ops": 3}, "wait": True}
        )
        assert status == 200
        assert doc["status"] == "done"
        assert doc["cache"]["misses"] >= 1

    def test_campaign_over_http(self, served):
        base, _ = served
        body = {
            "kind": "campaign",
            "params": {"procs": [2], "rates": [0.0, 1e-4], "ops": 3},
            "wait": True,
        }
        status, doc, _ = post(base, body)
        assert status == 200 and doc["status"] == "done"
        points = doc["result"]["points"]
        assert len(points) == 2
        assert {p["fault_rate"] for p in points} == {0.0, 1e-4}

    def test_oversized_request_413(self, tmp_path):
        app = ServiceApp(str(tmp_path / "cache"), backend="inline", max_points=3)
        server = make_server(app, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            status, doc, _ = post(
                base,
                {"kind": "campaign",
                 "params": {"procs": [2, 4], "rates": [0.0, 1e-4]}},
            )
            assert status == 413 and "split the request" in doc["error"]
        finally:
            server.shutdown()
            thread.join(timeout=10)
            app.close()

    def test_overload_429_with_retry_after(self, tmp_path, monkeypatch):
        from repro.service.jobs import JobSpec

        gate = threading.Event()
        original = JobSpec.execute

        def execute(self, runner):
            if self.param_dict().get("ops") == 999:
                gate.wait(60)
                return {"blocked": True}
            return original(self, runner)

        monkeypatch.setattr(JobSpec, "execute", execute)
        app = ServiceApp(
            str(tmp_path / "cache"), backend="inline", workers=1, queue_cap=1
        )
        server = make_server(app, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            post(base, {"kind": "point", "params": {"ops": 999}})  # parks worker
            status, doc, headers = post(base, {"kind": "point", "params": {"ops": 4}})
            assert status == 429
            assert doc["retry_after"] >= 1.0
            assert int(headers["Retry-After"]) >= 1
        finally:
            gate.set()
            server.shutdown()
            thread.join(timeout=10)
            app.close()


class TestAcceptance:
    """The ISSUE's acceptance bar, end to end over real HTTP."""

    @pytest.mark.parametrize("served", ["inline", "process:2"], indirect=True)
    def test_fig2_byte_identical_and_cached(self, served):
        from repro.experiments.latency import run_figure2

        base, app = served
        body = {
            "kind": "experiment",
            "experiment": "fig2",
            "params": {"procs": [1, 2], "samples": 50},
            "wait": True,
        }
        status, first, _ = post(base, body)
        assert status == 200 and first["status"] == "done"
        # byte-identical to the serial, cache-less library run
        direct = run_figure2(proc_counts=[1, 2], samples=50)
        assert first["result"]["rendered"] == direct.render()
        assert first["result"]["rows"] == direct.rows
        # the resubmission is served (>=95%) from the sharded cache
        status, second, _ = post(base, body)
        assert status == 200 and second["status"] == "done"
        assert second["result"]["rendered"] == first["result"]["rendered"]
        stats = second["cache"]
        lookups = stats["hits"] + stats["misses"]
        assert lookups > 0
        assert stats["hits"] / lookups >= 0.95
        assert app.cache.entry_count() > 0

    def test_fig3_quick_matches_cli_serial_output(self, served):
        from repro.experiments.locks import run_figure3

        base, _ = served
        body = {
            "kind": "experiment",
            "experiment": "fig3",
            "params": {"procs": [2], "ops": 3},
            "wait": True,
        }
        status, doc, _ = post(base, body)
        assert status == 200 and doc["status"] == "done"
        direct = run_figure3(proc_counts=[2], ops=3)
        assert doc["result"]["rendered"] == direct.render()

    def test_obs_summaries_flow_through(self, served):
        base, _ = served
        body = {"kind": "point", "params": {"ops": 3}, "obs": True, "wait": True}
        status, doc, _ = post(base, body)
        assert status == 200 and doc["status"] == "done"
        assert doc["obs"], "capture summaries missing from response"
        assert doc["obs"][0]["totals"]["ring_transactions"] > 0
