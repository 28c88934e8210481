"""Tests for the ksr-trace command line."""

import json

import pytest

import repro.obs.cli as obs_cli
from repro.obs.cli import SUBJECTS, main
from repro.obs.export import validate_chrome_trace

_FAST = ["--procs", "2", "--ops", "4", "--no-cache"]


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep any cache writes inside the test's tmp directory."""
    monkeypatch.setenv("KSR_CACHE_DIR", str(tmp_path / "cache"))


class TestSizes:
    """``--ops``/``--samples``/``--reps`` default to each subject's quick size."""

    def test_unset_sizes_are_the_quick_sizes(self, monkeypatch):
        class Stop(Exception):
            pass

        plans = []

        def record(plan, runner):
            plans.append(plan)
            raise Stop

        monkeypatch.setattr(obs_cli, "run_plan", record)
        for key in SUBJECTS:
            with pytest.raises(Stop):
                main([key, "--procs", "2", "--no-cache"])
        for key, plan in zip(SUBJECTS, plans):
            quick = SUBJECTS[key].params(quick=True)
            sizes = {n: quick[n] for n in ("ops", "samples", "reps") if n in quick}
            assert sizes and plan
            for _, kwargs in plan:
                assert {n: kwargs[n] for n in sizes} == sizes, key

    @pytest.mark.parametrize("subject, option", [
        ("fig2", "--samples"), ("fig3", "--ops"), ("fig4", "--reps"),
    ])
    def test_a_size_below_one_is_a_usage_error(self, subject, option, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([subject, "--procs", "2", option, "0", "--no-cache"])
        assert exit_info.value.code == 2
        assert f"{option}: must be at least 1, got 0" in capsys.readouterr().err

    def test_help_names_each_quick_size(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
        for key, entry in SUBJECTS.items():
            for name in ("ops", "samples", "reps"):
                if name in entry.default:
                    assert f"{entry.params(quick=True)[name]} for {key}" in help_text


class TestSelection:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for key in SUBJECTS:
            assert key in out

    def test_no_subjects_lists(self, capsys):
        assert main([]) == 0
        assert "fig3" in capsys.readouterr().out

    def test_unknown_subject(self, capsys):
        assert main(["fig99"]) == 2
        assert "fig99" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subject, procs, least",
        [("fig2", "0", 1), ("fig3", "0", 1), ("fig4", "1", 2), ("fig5", "1", 2)],
    )
    def test_impossible_procs_is_a_usage_error(self, subject, procs, least, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([subject, "--procs", procs, "--no-cache"])
        assert exit_info.value.code == 2
        assert f"{subject} needs --procs of at least {least}" in capsys.readouterr().err

    @pytest.mark.parametrize("subject", ["fig3", "fig4"])
    def test_procs_above_the_largest_machine_is_a_usage_error(self, subject, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([subject, "--procs", "2000", "--no-cache"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--procs must be at most 1088" in err and "Traceback" not in err

    def test_procs_is_checked_against_every_subject(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig3", "fig4", "--procs", "1", "--no-cache"])
        assert "fig4 needs --procs of at least 2" in capsys.readouterr().err


class TestFormats:
    def test_summary_to_stdout(self, capsys):
        assert main(["fig3", *_FAST]) == 0
        out = capsys.readouterr().out
        assert "Machine-wide observability summary" in out
        assert "fig3 hardware P=2" in out
        assert "fig3 rw 100% read P=2" in out

    def test_chrome_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "fig3.trace.json"
        assert main(["fig3", *_FAST, "--format", "chrome", "--output", str(out_file)]) == 0
        assert str(out_file) in capsys.readouterr().out
        doc = json.loads(out_file.read_text())
        assert validate_chrome_trace(doc) == []
        # one capture per fig3 point: hardware + six read fractions
        assert len(doc["otherData"]["captures"]) == 7

    def test_csv_to_stdout(self, capsys):
        assert main(["fig3", *_FAST, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("bucket_start_cycles,")
        assert "# label,fig3 hardware P=2" in out

    def test_record_cap_flag(self, tmp_path, capsys):
        out_file = tmp_path / "capped.trace.json"
        assert (
            main(
                ["fig3", *_FAST, "--max-records", "5",
                 "--format", "chrome", "--output", str(out_file)]
            )
            == 0
        )
        doc = json.loads(out_file.read_text())
        for meta in doc["otherData"]["captures"]:
            assert meta["records"] <= 5

    def test_summary_reports_dropped_records(self, capsys):
        assert main(["fig3", *_FAST, "--max-records", "5"]) == 0
        out = capsys.readouterr().out
        assert "trace ring buffer dropped" in out

    def test_cache_roundtrip_is_identical(self, tmp_path, capsys):
        cold = tmp_path / "cold.json"
        warm = tmp_path / "warm.json"
        args = ["fig3", "--procs", "2", "--ops", "4", "--format", "chrome"]
        assert main([*args, "--output", str(cold)]) == 0  # populates the cache
        assert main([*args, "--output", str(warm)]) == 0  # served from it
        capsys.readouterr()
        assert cold.read_bytes() == warm.read_bytes()


class TestSubjects:
    def test_fig2_points(self, capsys):
        args = ["fig2", "--procs", "2", "--samples", "40", "--no-cache"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "fig2 local read P=2" in out
        assert "fig2 network write P=2" in out

    def test_fig2_single_processor_skips_network(self, capsys):
        args = ["fig2", "--procs", "1", "--samples", "40", "--no-cache"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "fig2 local read P=1" in out
        assert "network" not in out

    def test_fig4_and_fig5_barriers(self, tmp_path, capsys):
        out_file = tmp_path / "bar.trace.json"
        args = [
            "fig4", "fig5", "--procs", "2", "--reps", "2", "--no-cache",
            "--format", "chrome", "--output", str(out_file),
        ]
        assert main(args) == 0
        capsys.readouterr()
        doc = json.loads(out_file.read_text())
        assert validate_chrome_trace(doc) == []
        labels = [c["label"] for c in doc["otherData"]["captures"]]
        assert len(labels) == 18  # nine algorithms per machine
        # fig5 runs on the 33-cell two-ring KSR-2 even at small P
        cells = {c["n_cells"] for c in doc["otherData"]["captures"]}
        assert cells == {2, 33}
