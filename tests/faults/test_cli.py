"""Tests for the ksr-faults command line."""

import json

import pytest

import repro.faults.campaign as campaign
import repro.faults.cli as faults_cli
from repro.experiments.sweep import point_key
from repro.faults.cli import build_faults_parser, main
from repro.machine.config import MAX_CELLS
from repro.obs.export import validate_chrome_trace

from tests.experiments.test_catalog import RecordingRunner

_FAST = ["--processors", "4", "--fault-rates", "0,1e-3", "--ops", "6", "--no-cache"]


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep any cache writes inside the test's tmp directory."""
    monkeypatch.setenv("KSR_CACHE_DIR", str(tmp_path / "cache"))


class TestSelection:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out
        assert "smoke" in out

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command(self, capsys):
        assert main(["detonate"]) == 2
        assert "detonate" in capsys.readouterr().err

    def test_bad_processor_list(self):
        with pytest.raises(SystemExit, match="processor"):
            main(["campaign", "--processors", "8,many"])

    def test_bad_rate_list(self):
        with pytest.raises(SystemExit, match="fault rate"):
            main(["campaign", "--processors", "4", "--fault-rates", "0,often"])


class TestArguments:
    """Values the service refuses are usage errors (exit 2) before any run."""

    @pytest.fixture(autouse=True)
    def _no_run(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a refused argument reached the campaign")

        monkeypatch.setattr(faults_cli, "run_campaign", refuse)

    @pytest.mark.parametrize("args, message", [
        (["--fault-rates", "1.5"], "fault rates must be in [0, 1), got 1.5"),
        (["--fault-rates", "0,-1e-3"], "fault rates must be in [0, 1), got -0.001"),
        (["--fault-rates", ","], "each need at least one value"),
        (["--processors", ","], "each need at least one value"),
        (["--processors", "1"], f"processor counts must be in [2, {MAX_CELLS}], got 1"),
        (["--processors", f"8,{MAX_CELLS + 1}"], f"[2, {MAX_CELLS}], got {MAX_CELLS + 1}"),
        (["--ops", "0"], "--ops: must be at least 1, got 0"),
        (["--seed", "-1"], "--seed must be at least 0, got -1"),
    ], ids=["rate-1.5", "rate-negative", "rates-empty", "procs-empty", "procs-1",
            "procs-above-max", "ops-0", "seed-negative"])
    def test_campaign_refuses(self, args, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", *args])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_smoke_refuses_a_rate_of_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["smoke", "--fault-rate", "1"])
        assert exc.value.code == 2
        assert "fault rates must be in [0, 1), got 1" in capsys.readouterr().err


class TestDefaults:
    def test_cli_defaults_are_the_campaign_default(self):
        args = build_faults_parser().parse_args(["campaign"])
        default = campaign.CAMPAIGN_DEFAULT
        assert [int(p) for p in args.processors.split(",")] == default["proc_counts"]
        assert [float(r) for r in args.fault_rates.split(",")] == list(campaign.DEFAULT_RATES)
        assert (args.ops, args.seed) == (default["ops"], default["seed"])

    def test_run_campaign_defaults_are_the_campaign_default(self, monkeypatch):
        tiny = {"proc_counts": [2], "ops": 2, "seed": 7}
        monkeypatch.setattr(campaign, "CAMPAIGN_DEFAULT", tiny)
        runner = RecordingRunner()
        result = campaign.run_campaign(fault_rates=[0.0, 1e-3], runner=runner)
        computed = [point_key(func, kwargs) for func, calls in runner.batches for kwargs in calls]
        planned = campaign.campaign_plan([2], [0.0, 1e-3], ops=2, seed=7)
        assert computed == [point_key(func, kwargs) for func, kwargs in planned]
        assert sorted(result.points) == [(2, 0.0), (2, 1e-3)]


class TestCampaign:
    def test_summary_table(self, capsys):
        assert main(["campaign", *_FAST]) == 0
        out = capsys.readouterr().out
        assert "Lock workload resilience" in out
        assert "fault rate" in out
        assert "slowdown" in out

    def test_json_format(self, capsys):
        assert main(["campaign", *_FAST, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["experiment"] == "FAULTS"
        assert len(doc["points"]) == 2
        rates = {p["fault_rate"] for p in doc["points"]}
        assert rates == {0.0, 1e-3}

    def test_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "campaign.json"
        assert main(["campaign", *_FAST, "--output", str(out_file)]) == 0
        assert str(out_file) in capsys.readouterr().err
        doc = json.loads(out_file.read_text())
        assert doc["experiment"] == "FAULTS"

    def test_trace_dir(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        assert main(["campaign", *_FAST, "--trace-dir", str(trace_dir)]) == 0
        traces = sorted(trace_dir.glob("*.trace.json"))
        assert len(traces) == 2  # one per fault rate
        for path in traces:
            assert validate_chrome_trace(json.loads(path.read_text())) == []


class TestSmoke:
    def test_smoke_runs_one_processor_count_and_two_rates(self, tmp_path, capsys):
        out_file = tmp_path / "smoke.json"
        assert (
            main(
                ["smoke", "--processors", "4,8,16", "--fault-rate", "1e-3",
                 "--ops", "30", "--no-cache", "--output", str(out_file)]
            )
            == 0
        )
        doc = json.loads(out_file.read_text())
        points = doc["points"]
        assert {p["n_procs"] for p in points} == {4}  # first count only
        assert {p["fault_rate"] for p in points} == {0.0, 1e-3}
