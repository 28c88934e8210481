"""``ksr-analyze`` drives all three passes and reports via exit status."""

from __future__ import annotations

from repro.analysis.cli import PASSES, main
from repro.experiments.cli import main as experiments_main


class TestKsrAnalyze:
    def test_list_names_every_pass(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for key in PASSES:
            assert key in out

    def test_unknown_pass_exits_2(self, capsys):
        assert main(["no-such-pass"]) == 2
        assert "no-such-pass" in capsys.readouterr().err

    def test_modelcheck_pass_is_clean(self, capsys):
        assert main(["modelcheck", "--cells", "2"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "15 states" in out

    def test_lint_pass_is_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_races_pass_is_clean(self, capsys):
        assert main(["races", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "audit[race-free workload]: OK" in out

    def test_default_selection_runs_everything(self, capsys):
        assert main(["--cells", "2", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "audit[race-free workload]" in out
        assert "lint[src/repro]" in out
        assert "states" in out

    def test_degenerate_cell_count_is_a_clean_error(self, capsys):
        assert main(["modelcheck", "--cells", "1"]) == 2
        err = capsys.readouterr().err
        assert "at least 2 cells" in err and "Traceback" not in err

    def test_output_writes_markdown_report(self, tmp_path, capsys):
        report = tmp_path / "analysis.md"
        assert main(["lint", "--output", str(report)]) == 0
        capsys.readouterr()
        text = report.read_text()
        assert text.startswith("# ksr-analyze report")
        assert "## lint" in text


class TestSharedCliHelpers:
    """ksr-experiments rides on the same repro.util.cli helpers."""

    def test_experiments_list_still_works(self, capsys):
        assert experiments_main(["--list"]) == 0
        assert "fig2" in capsys.readouterr().out

    def test_experiments_unknown_id_exits_2(self, capsys):
        assert experiments_main(["not-an-experiment"]) == 2
        assert "not-an-experiment" in capsys.readouterr().err


class TestFlowPassAndFormats:
    """The flow pass, the shared reporter formats, and the baseline."""

    def test_flow_pass_is_clean_under_strict(self, capsys):
        assert main(["flow", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "flow[src/repro]: OK" in out
        assert "purity" in out

    def test_json_format_reports_pass_outcomes(self, capsys):
        import json

        assert main(["lint", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "ksr-analyze"
        assert doc["findings"] == []
        assert doc["passes"]["lint"]["ok"] is True

    def test_sarif_format_carries_rule_catalog(self, capsys):
        import json

        assert main(["lint", "--format", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        driver = doc["runs"][0]["tool"]["driver"]
        assert driver["name"] == "ksr-analyze"
        assert {r["id"] for r in driver["rules"]} >= {
            "KSR100", "KSR102", "KSR103", "KSR110", "KSR111", "KSR112",
            "KSR114", "KSR120", "KSR121",
        }

    def test_format_output_writes_rendered_report(self, tmp_path, capsys):
        import json

        target = tmp_path / "report.sarif"
        assert main(["lint", "--format", "sarif", "--output", str(target)]) == 0
        capsys.readouterr()
        doc = json.loads(target.read_text())
        assert doc["version"] == "2.1.0"

    def test_write_baseline_creates_file(self, tmp_path, capsys):
        target = tmp_path / "baseline.json"
        assert main(["lint", "--write-baseline", "--baseline", str(target)]) == 0
        assert "wrote 0 baseline" in capsys.readouterr().out
        assert target.exists()

    def test_stale_baseline_entry_fails_only_under_strict(self, tmp_path, capsys):
        import json

        stale = tmp_path / "baseline.json"
        stale.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {
                            "rule": "KSR110",
                            "path": "gone.py",
                            "span": "0" * 16,
                            "note": "fixed long ago",
                        }
                    ],
                }
            )
        )
        assert main(["lint", "--baseline", str(stale)]) == 0
        assert "stale baseline entry" in capsys.readouterr().out
        assert main(["lint", "--baseline", str(stale), "--strict"]) == 1

    def test_corrupt_baseline_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "baseline.json"
        bad.write_text("{not json")
        assert main(["lint", "--baseline", str(bad)]) == 2
        assert "unreadable baseline" in capsys.readouterr().err


class TestScenariosPass:
    """The symbolic scenario corpus pass (KSR120–121)."""

    def test_enumerate_mode_reports_coverage(self, capsys):
        assert main(
            ["scenarios", "--mode", "enumerate", "--cells", "2",
             "--subpages", "1", "--depth", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "scenarios[2c/1sp/depth 3]: 43 classes" in out
        assert "scenarios[coverage]:" in out
        assert "scenarios[differential]" not in out

    def test_stats_mode_executes_a_sample(self, capsys):
        assert main(
            ["scenarios", "--cells", "2", "--subpages", "1",
             "--depth", "3", "--sample", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "scenarios[differential]: OK — 5 representative(s) executed" in out

    def test_run_mode_executes_every_class(self, capsys):
        assert main(
            ["scenarios", "--mode", "run", "--cells", "2",
             "--subpages", "1", "--depth", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "scenarios[differential]: OK — 43 representative(s) executed" in out
        assert "0 divergence(s)" in out

    def test_corpus_artifact_is_written(self, tmp_path, capsys):
        import json

        corpus = tmp_path / "corpus.json"
        assert main(
            ["scenarios", "--mode", "enumerate", "--cells", "2",
             "--subpages", "1", "--depth", "2", "--corpus", str(corpus)]
        ) == 0
        assert "scenarios[corpus]: wrote" in capsys.readouterr().out
        doc = json.loads(corpus.read_text())
        assert doc["configs"][0]["n_classes"] == len(doc["configs"][0]["classes"])

    def test_manifest_round_trip_via_cli(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        assert main(
            ["scenarios", "--write-manifest", "--manifest", str(manifest),
             "--sample", "2"]
        ) == 0
        assert "scenarios[manifest]: pinned" in capsys.readouterr().out
        assert main(["scenarios", "--check", "--manifest", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "scenarios[check]: OK" in out

    def test_tampered_manifest_fails_check_with_ksr121(self, tmp_path, capsys):
        import json

        manifest = tmp_path / "manifest.json"
        assert main(
            ["scenarios", "--write-manifest", "--manifest", str(manifest),
             "--sample", "2"]
        ) == 0
        capsys.readouterr()
        doc = json.loads(manifest.read_text())
        doc["configs"][0]["n_classes"] += 1
        manifest.write_text(json.dumps(doc))
        assert main(["scenarios", "--check", "--manifest", str(manifest)]) == 1
        out = capsys.readouterr().out
        assert "KSR121" in out and "scenarios[check]: FAIL" in out

    def test_missing_manifest_is_a_clean_error(self, tmp_path, capsys):
        assert main(
            ["scenarios", "--check", "--manifest", str(tmp_path / "none.json")]
        ) == 2
        err = capsys.readouterr().err
        assert "manifest" in err and "Traceback" not in err
