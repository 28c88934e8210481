"""``ksr-serve`` flag handling: every serve mode resolves its options alike."""

from __future__ import annotations

import json
import socket
import urllib.request

import pytest

from repro.service import cli


def parse(*argv: str):
    return cli.build_serve_parser().parse_args(list(argv))


class TestBackendAndCacheCap:
    @pytest.mark.parametrize(
        "mode",
        [[], ["--fleet", "2"], ["--worker", "--join", "http://127.0.0.1:9"]],
        ids=["daemon", "fleet", "worker"],
    )
    def test_backend_and_jobs_conflict_in_every_mode(self, mode, tmp_path):
        with pytest.raises(SystemExit, match="--backend or --jobs, not both"):
            cli.main([*mode, "--backend", "inline", "--jobs", "2",
                      "--port", "0", "--cache-dir", str(tmp_path)])

    def test_fleet_caps_every_worker_shard(self, tmp_path):
        args = parse("--fleet", "2", "--cache-cap-mb", "0.5", "--port", "0",
                     "--cache-dir", str(tmp_path))
        with cli._make_fleet(args) as fleet:
            caps = {wid: fleet.worker_app(wid).cache.cap_bytes for wid in fleet.workers}
        assert caps == {"worker-0": 512 * 1024, "worker-1": 512 * 1024}


class TestFleetPort:
    def test_coordinator_binds_the_requested_port(self, tmp_path):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        args = parse("--fleet", "1", "--port", str(port), "--cache-dir", str(tmp_path))
        with cli._make_fleet(args) as fleet:
            assert fleet.base_url == f"http://127.0.0.1:{port}"
            with urllib.request.urlopen(fleet.base_url + "/healthz", timeout=30) as reply:
                assert json.loads(reply.read())["role"] == "coordinator"
