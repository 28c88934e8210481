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
    @pytest.mark.parametrize("jobs", ["0", "-1", "x"])
    def test_bad_jobs_is_a_usage_error_in_every_mode(self, mode, jobs, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*mode, "--jobs", jobs, "--port", "0", "--cache-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_jobs_picks_the_backend(self, tmp_path):
        from repro.experiments.sweep import InlineBackend, ProcessPoolBackend

        app = cli._make_app(parse("--jobs", "1", "--cache-dir", str(tmp_path / "a")))
        try:
            assert isinstance(app.scheduler.backend, InlineBackend)
        finally:
            app.close(drain_deadline=0)
        app = cli._make_app(parse("--cache-dir", str(tmp_path / "b")))
        try:
            assert isinstance(app.scheduler.backend, ProcessPoolBackend)
            assert app.scheduler.backend.jobs == 2  # the daemon's default
        finally:
            app.close(drain_deadline=0)
        args = parse("--fleet", "1", "--port", "0", "--cache-dir", str(tmp_path / "c"))
        with cli._make_fleet(args) as fleet:  # workers default to in-process
            assert isinstance(fleet.worker_app("worker-0").scheduler.backend, InlineBackend)

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


class TestCacheLocation:
    def test_daemon_shares_the_cli_cache(self, tmp_path, monkeypatch):
        from repro.experiments.sweep import ResultCache

        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("KSR_CACHE_DIR", str(tmp_path / "shared"))
        monkeypatch.setenv("KSR_CACHE_DIR2", str(tmp_path / "ignored"))
        app = cli._make_app(parse("--jobs", "1"))
        try:
            assert app.cache.root == ResultCache.default().root == tmp_path / "shared"
        finally:
            app.close(drain_deadline=0)
        monkeypatch.delenv("KSR_CACHE_DIR")
        app = cli._make_app(parse("--jobs", "1"))
        try:
            assert app.cache.root == tmp_path / ".ksr-cache"
        finally:
            app.close(drain_deadline=0)
        assert not (tmp_path / "ignored").exists()

    @pytest.mark.parametrize(
        "mode", [["--fleet", "2"], ["--worker", "--join", "http://127.0.0.1:9"]],
        ids=["fleet", "worker"],
    )
    def test_fleet_and_worker_default_root(self, mode, monkeypatch):
        monkeypatch.setenv("KSR_CACHE_DIR", "/elsewhere")
        monkeypatch.setenv("KSR_CACHE_DIR2", "/ignored")
        assert cli._fleet_cache_root(parse(*mode)) == ".ksr-fleet-cache"
        assert cli._fleet_cache_root(parse(*mode, "--cache-dir", "d")) == "d"

    def test_help_states_the_real_defaults(self):
        parser = cli.build_serve_parser()
        (text,) = [a.help for a in parser._actions if "--cache-dir" in a.option_strings]
        assert "$KSR_CACHE_DIR or ./.ksr-cache," in text
        assert "./.ksr-fleet-cache with --fleet or --worker" in text
        assert "$$" not in parser.format_help()
