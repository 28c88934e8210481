"""Shared CLI plumbing: every ``--jobs`` flag takes a positive int."""

from __future__ import annotations

import argparse

import pytest

from repro.analysis.cli import main as analyze
from repro.experiments.cli import main as experiments
from repro.faults.cli import main as faults
from repro.obs.cli import main as trace
from repro.service.cli import main as serve
from repro.util.cli import positive_int


class TestPositiveInt:
    def test_accepts_counts(self):
        assert positive_int("1") == 1
        assert positive_int("8") == 8

    @pytest.mark.parametrize("text", ["0", "-1", "two", "1.5", ""])
    def test_rejects_everything_else_as_a_usage_error(self, text, capsys):
        parser = argparse.ArgumentParser()
        parser.add_argument("--jobs", type=positive_int)
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(["--jobs", text])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "main, argv",
    [
        (experiments, ["fig2", "--quick", "--no-cache"]),
        (trace, ["fig2", "--no-cache"]),
        (faults, ["campaign", "--no-cache"]),
        (analyze, ["scenarios", "--mode", "run"]),
        (serve, ["--port", "0"]),
    ],
    ids=["ksr-experiments", "ksr-trace", "ksr-faults", "ksr-analyze", "ksr-serve"],
)
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_every_cli_refuses_a_bad_jobs_with_usage_exit_2(main, argv, jobs, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--jobs", jobs])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--jobs" in err and "must be at least 1" in err
