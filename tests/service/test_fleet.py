"""Federated fleet, end to end: routing, handoff, replication, tenancy.

Every test runs a real coordinator + worker fleet on loopback sockets
(:class:`LocalFleet`), so the wire protocol, the consistent-hash
routing, the read-through and the replication paths are exercised
exactly as they would be across machines.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.service.fleet import LocalFleet
from repro.service.quotas import TenantPolicy


def get(base: str, path: str, token: str | None = None) -> tuple[int, dict]:
    headers = {"X-Fleet-Token": token} if token else {}
    request = urllib.request.Request(base + path, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
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


@pytest.fixture
def fleet(tmp_path):
    """3 workers + coordinator, heartbeat off (tests drive health directly)."""
    with LocalFleet(tmp_path / "fleet", n_workers=3, heartbeat_interval=None) as lf:
        yield lf


FIG2 = {
    "kind": "experiment",
    "experiment": "fig2",
    "params": {"procs": [1, 2], "samples": 50},
    "wait": True,
}


class TestEndpoints:
    def test_coordinator_healthz(self, fleet):
        status, doc = get(fleet.base_url, "/healthz")
        assert status == 200
        assert doc["status"] == "ok" and doc["role"] == "coordinator"
        assert doc["fleet"]["workers"] == 3
        assert sorted(doc["fleet"]["alive"]) == ["worker-0", "worker-1", "worker-2"]
        assert doc["version"]["code"] and doc["version"]["model"]

    def test_stats_and_workers_surfaces(self, fleet):
        status, doc = get(fleet.base_url, "/v1/stats")
        assert status == 200
        assert doc["scheduler"]["backend"] == "fleet"
        assert doc["fleet"]["replication"] == 2
        status, doc = get(fleet.base_url, "/v1/fleet/workers",
                          token=fleet.auth.secret)
        assert status == 200
        assert set(doc["workers"]) == {"worker-0", "worker-1", "worker-2"}

    def test_catalog_matches_single_daemon(self, fleet):
        status, doc = get(fleet.base_url, "/v1/experiments")
        assert status == 200
        assert set(doc["experiments"]) == {"fig2", "fig3", "fig4", "fig5"}

    def test_tenant_must_be_a_string(self, fleet):
        status, doc, _ = post(
            fleet.base_url,
            {"kind": "point", "params": {"ops": 3}, "tenant": 123},
        )
        assert status == 400 and "tenant" in doc["error"]


class TestAcceptance:
    """The ISSUE's fleet acceptance bar, end to end over real HTTP."""

    def test_fig2_byte_identical_and_resubmit_cache_served(self, fleet):
        from repro.experiments.latency import run_figure2

        status, first, _ = post(fleet.base_url, FIG2)
        assert status == 200 and first["status"] == "done"
        direct = run_figure2(proc_counts=[1, 2], samples=50)
        assert first["result"]["rendered"] == direct.render()
        assert first["result"]["rows"] == direct.rows

        status, second, _ = post(fleet.base_url, FIG2)
        assert status == 200 and second["status"] == "done"
        assert json.dumps(second["result"], sort_keys=True) == json.dumps(
            first["result"], sort_keys=True
        )
        stats = second["cache"]
        lookups = stats["hits"] + stats["misses"]
        assert lookups > 0
        assert stats["hits"] / lookups >= 0.95
        assert stats["fleet"] is True

    def test_points_spread_over_shards(self, fleet):
        status, doc, _ = post(fleet.base_url, FIG2)
        assert status == 200 and doc["status"] == "done"
        populated = [
            wid for wid in fleet.workers
            if fleet.worker_app(wid).cache.entry_count() > 0
        ]
        assert len(populated) >= 2, "routing should shard points, not pile them up"

    def test_worker_death_mid_campaign_hands_off_and_completes(self, tmp_path):
        campaign = {
            "kind": "campaign",
            "params": {"procs": [2, 3], "rates": [0.0, 1e-5, 1e-4], "ops": 3},
            "wait": True,
        }
        # Reference pass on a healthy fleet; note which shards own points.
        with LocalFleet(tmp_path / "a", n_workers=3, heartbeat_interval=None) as healthy:
            status, reference, _ = post(healthy.base_url, campaign)
            assert status == 200 and reference["status"] == "done"
            victim = next(
                wid for wid in healthy.workers
                if healthy.worker_app(wid).cache.entry_count() > 0
            )
        # Same worker ids => same ring placement: killing `victim` is
        # guaranteed to orphan at least one of the campaign's points.
        with LocalFleet(tmp_path / "b", n_workers=3, heartbeat_interval=None) as lf:
            lf.kill_worker(victim)
            status, doc, _ = post(lf.base_url, campaign)
            assert status == 200 and doc["status"] == "done", "no job may be lost"
            assert json.dumps(doc["result"], sort_keys=True) == json.dumps(
                reference["result"], sort_keys=True
            )
            assert lf.client.handoffs >= 1
            status, workers = get(lf.base_url, "/v1/fleet/workers",
                                  token=lf.auth.secret)
            assert victim not in workers["alive"]

    def test_replication_then_owner_death_still_serves_from_cache(self, fleet):
        body = {"kind": "point", "params": {"ops": 3, "n_procs": 2}, "wait": True}
        status, first, _ = post(fleet.base_url, body)
        assert status == 200 and first["status"] == "done"
        assert first["cache"]["misses"] == 1
        for wid in fleet.workers:
            fleet.worker_app(wid).join_replication()
        holders = [
            wid for wid in fleet.workers
            if fleet.worker_app(wid).cache.entry_count() > 0
        ]
        # replication=2: the computed point lives on its owner plus one
        # ring successor, pushed off the request path.
        assert len(holders) == 2
        assert sum(fleet.worker_app(w).replicated_out for w in fleet.workers) >= 1
        assert sum(fleet.worker_app(w).replicated_in for w in fleet.workers) >= 1
        # Kill one copy: the survivor answers, locally or via
        # read-through — never a recompute.
        fleet.kill_worker(holders[0])
        status, second, _ = post(fleet.base_url, body)
        assert status == 200 and second["status"] == "done"
        assert second["cache"]["hits"] == 1 and second["cache"]["misses"] == 0
        assert second["result"] == first["result"]


class TestTenancy:
    def test_quota_429_carries_retry_after(self, tmp_path):
        with LocalFleet(
            tmp_path / "fleet",
            n_workers=1,
            heartbeat_interval=None,
            policies={"limited": TenantPolicy(rate=0.01, burst=1)},
        ) as lf:
            ok = {"kind": "point", "params": {"ops": 3, "seed": 1},
                  "tenant": "limited", "wait": True}
            status, doc, _ = post(lf.base_url, ok)
            assert status == 200 and doc["status"] == "done"
            status, doc, headers = post(
                lf.base_url,
                {"kind": "point", "params": {"ops": 3, "seed": 2}, "tenant": "limited"},
            )
            assert status == 429
            assert doc["retry_after"] > 0
            assert int(headers["Retry-After"]) >= 1
            stats = get(lf.base_url, "/v1/stats")[1]["scheduler"]
            assert stats["rejected_quota"] == 1
            assert stats["tenants"]["limited"]["rejected_quota"] == 1

    def test_per_tenant_counters_in_stats(self, fleet):
        for tenant in ("alpha", "beta"):
            status, doc, _ = post(
                fleet.base_url,
                {"kind": "point", "params": {"ops": 3}, "tenant": tenant, "wait": True},
            )
            assert status == 200 and doc["status"] == "done"
        tenants = get(fleet.base_url, "/v1/stats")[1]["scheduler"]["tenants"]
        assert tenants["alpha"]["completed"] == 1
        assert tenants["beta"]["completed"] == 1


class TestDraining:
    def test_coordinator_drain_rejects_with_503(self, fleet):
        fleet.coordinator.begin_shutdown()
        status, doc, headers = post(
            fleet.base_url, {"kind": "point", "params": {"ops": 3}}
        )
        assert status == 503 and "draining" in doc["error"]
        assert headers.get("Retry-After")

    def test_draining_worker_is_excluded_by_health_check(self, fleet):
        assert fleet.client.check_health() == {
            "worker-0": True, "worker-1": True, "worker-2": True,
        }
        fleet.worker_app("worker-1").begin_shutdown()
        alive = fleet.client.check_health()
        assert alive["worker-1"] is False
        assert fleet.client.workers["worker-1"].reason == "draining"
        assert "worker-1" not in fleet.client.ring



class TestFleetBackend:
    def test_sums_the_served_and_computed_counts_of_every_map(self, tmp_path):
        from repro.experiments.locks import measure_lock
        from repro.service.backends import BackendSweepRunner
        from repro.service.fleet import FleetBackend

        calls = [dict(kind="hardware", n_procs=p, read_fraction=0.0, ops=3, seed=303)
                 for p in (2, 4, 2)]
        with LocalFleet(tmp_path / "fleet", n_workers=2, heartbeat_interval=None) as lf:
            returned: list[dict] = []
            inner = lf.client.map_points

            def map_points(func, points):
                values, stats = inner(func, points)
                returned.append(stats)
                return values, stats

            lf.client.map_points = map_points
            backend = FleetBackend(lf.client)
            runner = BackendSweepRunner(backend)
            cold = runner.map(measure_lock, calls)
            warm = runner.map(measure_lock, calls)
        assert cold == warm == [measure_lock(**c) for c in calls]
        # the duplicate call is computed once; the resubmit is served by its owners
        assert backend.served == {"points": 4, "local_hits": 2, "remote_hits": 0,
                                  "computed": 2}
        assert backend.served == {name: sum(s[name] for s in returned)
                                  for name in backend.served}
