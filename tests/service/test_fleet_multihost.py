"""Multi-host fleet: registration, token auth, rejoin + dead-interval repair.

These tests drive the dynamic-membership surface the ``--worker
--join`` deployment rides on: the ``POST /v1/fleet/register``
handshake, the shared-secret gate on every fleet-plane endpoint, the
rejoin-triggers-repair path, and the dead-interval reaper that
restores the replication factor after a permanent loss.  All over real
loopback sockets via :class:`LocalFleet`; :class:`TestWorkerProcesses`
joins real ``ksr-serve --worker`` OS processes and SIGKILLs one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.service.app import version_info
from repro.service.fleet import LocalFleet, Registrar, WorkerHandle
from repro.service.fleet.wire import FLEET_TOKEN_ENV, FLEET_TOKEN_HEADER


def get(base: str, path: str, token: str | None = None) -> tuple[int, dict]:
    headers = {FLEET_TOKEN_HEADER: token} if token else {}
    request = urllib.request.Request(base + path, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def post_json(
    base: str, path: str, body: dict, token: str | None = None
) -> tuple[int, dict]:
    headers = {"Content-Type": "application/json"}
    if token:
        headers[FLEET_TOKEN_HEADER] = token
    request = urllib.request.Request(
        base + path, data=json.dumps(body).encode(), headers=headers,
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def settle_replication(fleet: LocalFleet, deadline: float = 20.0) -> dict:
    """Wait for async replication pushes to reach the full factor."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        for wid in fleet.workers:
            fleet.worker_app(wid).join_replication()
        report = fleet.client.replication_report()
        if report["keys"] > 0 and report["under_replicated"] == 0:
            return report
        time.sleep(0.05)
    raise AssertionError(f"replication never settled: {report}")


POINT = {"kind": "point", "params": {"ops": 3, "n_procs": 2}, "wait": True}
FIG2 = {
    "kind": "experiment",
    "experiment": "fig2",
    "params": {"procs": [1, 2], "samples": 50},
    "wait": True,
}


@pytest.fixture
def fleet(tmp_path):
    """3 workers + coordinator; heartbeat off, tests drive membership."""
    with LocalFleet(
        tmp_path / "fleet", n_workers=3, heartbeat_interval=None,
        dead_interval=0.2,
    ) as lf:
        yield lf


class TestAuthGate:
    """Every fleet control/data-plane call requires the shared token."""

    def test_coordinator_fleet_surfaces_reject_tokenless(self, fleet):
        for path in ("/v1/fleet/workers", "/v1/fleet/replication"):
            status, doc = get(fleet.base_url, path)
            assert status == 401, path
            assert "token" in doc["error"]
            assert get(fleet.base_url, path, token=fleet.auth.secret)[0] == 200

    def test_register_rejects_tokenless_and_bad_token(self, fleet):
        body = {"worker_id": "w", "base_url": "http://127.0.0.1:9"}
        assert post_json(fleet.base_url, "/v1/fleet/register", body)[0] == 401
        status, _ = post_json(
            fleet.base_url, "/v1/fleet/register", body, token="wrong-secret"
        )
        assert status == 401

    def test_worker_fleet_endpoints_reject_tokenless(self, fleet):
        url = fleet.workers["worker-0"].base_url
        for path in ("/v1/fleet/keys", "/v1/fleet/entry/deadbeef"):
            status, doc = get(url, path)
            assert status == 401, path
        # data plane POSTs are gated before the body is even parsed
        for path in ("/v1/fleet/map", "/v1/fleet/entry", "/v1/fleet/repair"):
            status, _ = post_json(url, path, {})
            assert status == 401, path

    def test_public_surfaces_stay_open(self, fleet):
        """/healthz stays tokenless: heartbeats and LBs must reach it."""
        assert get(fleet.base_url, "/healthz")[0] == 200
        assert get(fleet.workers["worker-0"].base_url, "/healthz")[0] == 200
        assert get(fleet.base_url, "/v1/experiments")[0] == 200


class TestRegistration:
    def test_register_admits_new_worker(self, fleet):
        body = {
            "worker_id": "joiner",
            "base_url": "http://127.0.0.1:9",  # unreachable: repair no-ops
            "version": version_info(),
            "fingerprint": "abc123",
        }
        status, doc = post_json(
            fleet.base_url, "/v1/fleet/register", body, token=fleet.auth.secret
        )
        assert status == 200 and doc["admitted"] is True
        assert doc["workers"] == 4
        assert doc["worker"]["registered"] is True
        assert doc["worker"]["fingerprint"] == "abc123"
        assert "joiner" in fleet.client.ring
        assert fleet.client.stats()["registrations"] == 1

    def test_reregistration_is_idempotent_heartbeat(self, fleet):
        body = {
            "worker_id": "joiner",
            "base_url": "http://127.0.0.1:9",
            "version": version_info(),
        }
        for _ in range(3):
            status, doc = post_json(
                fleet.base_url, "/v1/fleet/register", body,
                token=fleet.auth.secret,
            )
            assert status == 200 and doc["workers"] == 4
        assert fleet.client.stats()["registrations"] == 3

    def test_version_mismatch_is_409(self, fleet):
        body = {
            "worker_id": "stale",
            "base_url": "http://127.0.0.1:9",
            "version": {"code": "0000000000000000", "model": "?"},
        }
        status, doc = post_json(
            fleet.base_url, "/v1/fleet/register", body, token=fleet.auth.secret
        )
        assert status == 409 and "version mismatch" in doc["error"]
        assert "stale" not in fleet.client.ring

    def test_bad_bodies_are_400(self, fleet):
        cases = [
            {},
            {"worker_id": "", "base_url": "http://x"},
            {"worker_id": 7, "base_url": "http://x"},
            {"worker_id": "w", "base_url": "ftp://x"},
            {"worker_id": "w", "base_url": "http://x", "version": "str"},
            {"worker_id": "w", "base_url": "http://x", "fingerprint": 9},
        ]
        for body in cases:
            status, _ = post_json(
                fleet.base_url, "/v1/fleet/register", body,
                token=fleet.auth.secret,
            )
            assert status == 400, body

    def test_registrar_loop_registers_real_worker(self, fleet, tmp_path):
        """The worker-side join path, end to end in-process."""
        from repro.service.fleet import FleetWorkerApp, make_worker_server

        app = FleetWorkerApp(
            str(tmp_path / "joiner"), worker_id="joiner", auth=fleet.auth
        )
        server = make_worker_server(app, "127.0.0.1", 0)
        import threading

        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        registrar = Registrar(app, fleet.base_url, url, interval=0.2)
        try:
            registrar.start()
            assert registrar.registered.wait(10), registrar.last_error
            status, doc = get(
                fleet.base_url, "/v1/fleet/workers", token=fleet.auth.secret
            )
            assert status == 200 and "joiner" in doc["alive"]
            assert doc["workers"]["joiner"]["base_url"] == url
        finally:
            registrar.stop()
            server.shutdown()
            thread.join(timeout=10)
            app.close(drain_deadline=0)


class TestMembershipSurfaces:
    def test_describe_reports_age_and_version(self):
        handle = WorkerHandle(worker_id="w", base_url="http://x")
        doc = handle.describe()
        assert doc["last_seen_age_s"] is None, "never seen: no fake age"
        assert doc["version"] == {}
        handle.last_seen = time.monotonic()
        handle.version = {"code": "abc", "model": "m"}
        doc = handle.describe()
        # an age in seconds, not a raw monotonic stamp
        assert 0.0 <= doc["last_seen_age_s"] < 5.0
        assert doc["version"]["code"] == "abc"

    def test_workers_surface_carries_age_not_monotonic(self, fleet):
        fleet.client.check_health()
        status, doc = get(
            fleet.base_url, "/v1/fleet/workers", token=fleet.auth.secret
        )
        assert status == 200
        for wid, worker in doc["workers"].items():
            assert worker["last_seen_age_s"] < 60.0, (
                f"{wid}: looks like a raw monotonic stamp, not an age"
            )
            assert "version" in worker and "registered" in worker


class TestRejoinRepair:
    """Regression: a heartbeat rejoin must trigger re-replication."""

    def test_rejoin_triggers_repair_and_read_through(self, fleet):
        victim = "worker-1"
        fleet.kill_worker(victim)
        for _ in range(fleet.client.max_failures):
            fleet.client.check_health()
        assert victim not in fleet.client.ring
        # Keys written while the victim is out live only on survivors.
        status, doc = post_fleet_job(fleet.base_url, POINT)
        assert status == 200 and doc["status"] == "done"
        repairs_before = fleet.client.repairs
        fleet.restart_worker(victim)
        fleet.client.check_health()
        assert victim in fleet.client.ring, "rejoin must re-admit"
        assert fleet.client.repairs == repairs_before + 1, (
            "rejoin without repair: the worker owns ranges it never saw"
        )
        report = fleet.client.replication_report()
        assert report["under_replicated"] == 0
        # And the fleet still serves the point from cache, not recompute.
        status, second = post_fleet_job(fleet.base_url, POINT)
        assert status == 200 and second["status"] == "done"
        assert second["result"] == doc["result"]
        assert second["cache"]["misses"] == 0


class TestDeadIntervalRepair:
    """Permanent loss: reap after the interval, restore the factor."""

    def test_reap_restores_replication_factor(self, fleet):
        status, doc = post_fleet_job(fleet.base_url, POINT)
        assert status == 200 and doc["status"] == "done"
        before = settle_replication(fleet)
        assert before["min_copies"] >= 2
        victim = next(
            wid for wid in fleet.workers
            if fleet.worker_app(wid).cache.entry_count() > 0
        )
        fleet.kill_worker(victim)
        for _ in range(fleet.client.max_failures):
            fleet.client.check_health()
        assert victim not in fleet.client.ring
        assert not fleet.client.reap_dead(), "dead interval not up yet"
        time.sleep(0.25)  # past the fixture's 0.2s dead interval
        assert fleet.client.reap_dead() is True
        report = fleet.client.last_replication
        assert report["pushed"] > 0, "no entries were re-replicated"
        assert report["under_replicated"] == 0
        assert report["alive"] == 2
        assert fleet.client.re_replicated > 0
        # One repair per death: a second reap round is a no-op.
        assert fleet.client.reap_dead() is False

    def test_reap_report_lands_in_stats_surface(self, fleet):
        status, doc = post_fleet_job(fleet.base_url, POINT)
        assert status == 200 and doc["status"] == "done"
        settle_replication(fleet)
        victim = next(
            wid for wid in fleet.workers
            if fleet.worker_app(wid).cache.entry_count() > 0
        )
        fleet.kill_worker(victim)
        for _ in range(fleet.client.max_failures):
            fleet.client.check_health()
        time.sleep(0.25)
        fleet.client.reap_dead()
        status, stats = get(fleet.base_url, "/v1/stats")
        assert status == 200
        fleet_stats = stats["fleet"]
        assert fleet_stats["repairs"] >= 1
        assert fleet_stats["dead_interval"] == 0.2
        assert fleet_stats["replication_status"]["under_replicated"] == 0
        assert fleet_stats["auth"] is True


def post_fleet_job(base: str, body: dict) -> tuple[int, dict]:
    """Submit one job to the coordinator's public (tokenless) API."""
    request = urllib.request.Request(
        base + "/v1/jobs",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=600) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def spawn_worker(coordinator: LocalFleet, worker_id: str, shard: Path) -> subprocess.Popen:
    """A ``ksr-serve --worker --join`` OS process registering every second."""
    env = dict(os.environ)
    env[FLEET_TOKEN_ENV] = coordinator.auth.secret
    package_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.service.cli",
            "--worker", "--join", coordinator.base_url,
            "--worker-id", worker_id,
            "--port", "0",
            "--jobs", "1",
            "--cache-dir", str(shard),
            "--register-interval", "1",
        ],
        env=env,
    )


class TestWorkerProcesses:
    """Worker OS processes join over real sockets and survive a SIGKILL."""

    def test_join_sigkill_repair_and_cached_resubmit(self, tmp_path):
        from repro.experiments.latency import run_figure2

        with LocalFleet(
            tmp_path / "coordinator", n_workers=0, heartbeat_interval=None,
            dead_interval=0.2,
        ) as fleet:
            client = fleet.client
            procs = {
                f"proc-worker-{i}": spawn_worker(
                    fleet, f"proc-worker-{i}", tmp_path / f"shard-{i}"
                )
                for i in range(3)
            }
            try:
                deadline = time.monotonic() + 60
                while len(client.alive_workers()) < len(procs):
                    assert time.monotonic() < deadline, "workers never registered"
                    assert all(p.poll() is None for p in procs.values())
                    time.sleep(0.05)

                status, first = post_fleet_job(fleet.base_url, FIG2)
                assert status == 200 and first["status"] == "done"
                direct = run_figure2(proc_counts=[1, 2], samples=50)
                assert first["result"]["rendered"] == direct.render()
                before = client.repair()
                assert before["keys"] > 0 and before["under_replicated"] == 0

                victim = next(
                    wid for wid, handle in client.workers.items()
                    if get(handle.base_url, "/v1/fleet/keys",
                           token=fleet.auth.secret)[1]["count"] > 0
                )
                procs[victim].kill()
                procs[victim].wait(timeout=10)
                for _ in range(client.max_failures):
                    client.check_health()
                assert victim not in client.ring
                time.sleep(0.25)  # past the 0.2s dead interval
                assert client.reap_dead() is True
                after = client.last_replication
                assert after["alive"] == 2 and after["pushed"] > 0
                assert after["keys"] == before["keys"]
                assert after["under_replicated"] == 0

                status, second = post_fleet_job(fleet.base_url, FIG2)
                assert status == 200 and second["status"] == "done"
                assert json.dumps(second["result"], sort_keys=True) == json.dumps(
                    first["result"], sort_keys=True
                )
                stats = second["cache"]
                assert stats["hits"] / (stats["hits"] + stats["misses"]) >= 0.95
            finally:
                for proc in procs.values():
                    if proc.poll() is None:
                        proc.terminate()
                for proc in procs.values():
                    try:
                        proc.wait(timeout=15)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
