"""Tests for the experiment runners (small sweeps) and the CLI."""

import pytest

from repro.experiments.base import CATALOG, ExperimentResult, PAPER_ANCHORS
from repro.experiments.cli import main
from repro.experiments.other_archs import BUTTERFLY, SYMMETRY, barrier_cost


class TestExperimentResult:
    def test_render_contains_rows_and_notes(self):
        r = ExperimentResult("X1", "demo", ["a", "b"])
        r.add_row([1, 2.5])
        r.notes.append("something observed")
        text = r.render()
        assert "X1: demo" in text
        assert "2.5" in text
        assert "note: something observed" in text

    def test_column_access(self):
        r = ExperimentResult("X1", "demo", ["P", "t"])
        r.add_row([1, 10.0])
        r.add_row([2, 5.0])
        assert r.column("t") == [10.0, 5.0]

    def test_series(self):
        r = ExperimentResult("X1", "demo", ["P"])
        r.add_series_point("s", 1, 2.0)
        r.add_series_point("s", 2, 1.0)
        assert r.series["s"] == [(1, 2.0), (2, 1.0)]


class TestAnchors:
    def test_anchor_tables_consistent(self):
        """Speedups in the anchor table must equal T1/Tp of the times."""
        t = PAPER_ANCHORS["cg_times"]
        for p, s in PAPER_ANCHORS["cg_speedups"].items():
            assert t[1] / t[p] == pytest.approx(s, rel=1e-4)
        t = PAPER_ANCHORS["is_times"]
        for p, s in PAPER_ANCHORS["is_speedups"].items():
            assert t[1] / t[p] == pytest.approx(s, rel=1e-4)


class TestLatencyRunner:
    def test_figure2_small(self):
        from repro.experiments.latency import run_figure2

        r = run_figure2(proc_counts=[1, 2, 8], samples=200)
        assert len(r.rows) == 3
        local_reads = [row[1] for row in r.rows]
        # ~18 cycles = 0.9 us, P-independent
        for v in local_reads:
            assert v == pytest.approx(0.9, abs=0.15)
        net = dict(r.series["network read"])
        assert net[2] == pytest.approx(175 * 50e-9, rel=0.15)

    def test_level_validation(self):
        from repro.experiments.latency import measure_latencies

        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            measure_latencies(2, "galactic", "read")
        with pytest.raises(ConfigError):
            measure_latencies(2, "local", "erase")


class TestLockRunner:
    def test_figure3_small(self):
        from repro.experiments.locks import run_figure3

        r = run_figure3(proc_counts=[2, 8], ops=10)
        assert len(r.rows) == 2
        excl = dict(r.series["exclusive lock"])
        assert excl[8] > excl[2]
        # read sharing helps at 8 processors
        row8 = r.rows[-1]
        assert row8[-1] < row8[1]  # readers-only < exclusive

    def test_unknown_kind(self):
        from repro.experiments.locks import measure_lock

        with pytest.raises(ValueError):
            measure_lock("optimistic", 2, 0.0)


class TestBarrierRunner:
    def test_figure4_small(self):
        from repro.experiments.barriers import run_figure4

        r = run_figure4(proc_counts=[4, 16], algorithms=["counter", "tournament(M)"], reps=5)
        assert len(r.rows) == 2
        counter = dict(r.series["counter"])
        tm = dict(r.series["tournament(M)"])
        assert counter[16] > tm[16]

    def test_figure5_crosses_rings(self):
        from repro.experiments.barriers import run_figure5

        r = run_figure5(proc_counts=[32, 48], algorithms=["tree(M)"], reps=4)
        t = dict(r.series["tree(M)"])
        assert t[48] > t[32]  # level-1 ring crossing jump

    def test_p_validation(self):
        from repro.experiments.barriers import measure_barrier
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            measure_barrier("counter", 1)


class TestOtherArchs:
    def test_counter_best_on_symmetry(self):
        costs = {
            a: barrier_cost(a, SYMMETRY, 32)
            for a in ("counter", "dissemination", "tournament", "mcs", "tree")
        }
        assert min(costs, key=costs.get) == "counter"

    def test_dissemination_best_on_butterfly(self):
        costs = {
            a: barrier_cost(a, BUTTERFLY, 32)
            for a in ("counter", "dissemination", "tournament", "mcs", "tree")
        }
        ranked = sorted(costs, key=costs.get)
        assert ranked[0] == "dissemination"
        assert ranked.index("tournament") < ranked.index("mcs")

    def test_mcs_m_best_tree_style_on_symmetry(self):
        tree_style = ("tree(M)", "tournament(M)", "mcs(M)")
        costs = {a: barrier_cost(a, SYMMETRY, 32) for a in tree_style}
        assert min(costs, key=costs.get) == "mcs(M)"

    def test_unknown_algorithm(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            barrier_cost("quantum", SYMMETRY, 8)


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for key in CATALOG:
            assert key in out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_runs_one_quick_experiment(self, capsys):
        assert main(["other-archs"]) == 0
        out = capsys.readouterr().out
        assert "S3.2.3" in out and "completed" in out

    def test_ep_quick(self, capsys):
        assert main(["ep", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "MFLOPS/cell" in out
