"""Golden-table regression tests pinning EXPERIMENTS.md.

EXPERIMENTS.md publishes the reproduced tables for the paper's
figures; these tests recompute a representative subset of those points
at the published settings and hold them inside explicit tolerance
bands.  A change that moves the simulated machine's behaviour now
fails here instead of silently invalidating the documented results.

Tolerances are deliberately tight-but-not-exact: the tables in
EXPERIMENTS.md are rounded, and small cost-model refinements that stay
inside a band are exactly the changes the shape-level goals permit.
"""

import pytest

from repro.experiments.barriers import figure4_point
from repro.experiments.latency import measure_latencies
from repro.experiments.locks import measure_lock

# -- FIG2: memory-hierarchy latencies (µs/access; seed 101, 1000 samples)
_FIG2_SEED, _FIG2_SAMPLES, _FIG2_RTOL = 101, 1000, 0.04
_FIG2_GOLDEN = [
    # (n_procs, level, op, µs)
    (1, "local", "read", 0.914),
    (1, "local", "write", 1.014),
    (2, "network", "read", 9.114),
    (2, "network", "write", 9.814),
]

# -- FIG3: lock times (seconds; 40 ops/processor, seed 303)
_FIG3_SEED, _FIG3_OPS, _FIG3_RTOL = 303, 40, 0.06
_FIG3_GOLDEN = {
    # P -> (exclusive, rw 0%, rw 20%, rw 40%, rw 60%, rw 80%, rw 100%)
    2: (0.053, 0.054, 0.054, 0.054, 0.054, 0.054, 0.055),
    8: (0.101, 0.104, 0.107, 0.095, 0.083, 0.069, 0.056),
}
_FIG3_FRACTIONS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

# -- FIG4: barrier episodes (µs; 10 reps, seed 404)
_FIG4_SEED, _FIG4_REPS, _FIG4_RTOL = 404, 10, 0.05
_FIG4_GOLDEN = {
    2: {
        "system": 58.2, "counter": 39.5, "tree": 46.2, "tree(M)": 46.2,
        "dissemination": 34.2, "tournament": 52.9, "tournament(M)": 52.9,
        "mcs": 52.8, "mcs(M)": 52.8,
    },
    8: {
        "system": 112.6, "counter": 124.4, "tree": 138.5, "tree(M)": 100.6,
        "dissemination": 88.9, "tournament": 149.0, "tournament(M)": 94.5,
        "mcs": 142.9, "mcs(M)": 92.8,
    },
}


@pytest.mark.parametrize("n_procs,level,op,golden_us", _FIG2_GOLDEN)
def test_fig2_latency_point(n_procs, level, op, golden_us):
    m = measure_latencies(
        n_procs, level, op, seed=_FIG2_SEED, samples=_FIG2_SAMPLES
    )
    assert m.mean_latency_s * 1e6 == pytest.approx(golden_us, rel=_FIG2_RTOL)


@pytest.fixture(scope="module", params=sorted(_FIG3_GOLDEN))
def fig3_row(request):
    """One recomputed FIG3 row: (P, (exclusive, rw 0% .. rw 100%))."""
    p = request.param
    row = [measure_lock("hardware", p, 0.0, ops=_FIG3_OPS, seed=_FIG3_SEED).seconds]
    row += [
        measure_lock("rw", p, f, ops=_FIG3_OPS, seed=_FIG3_SEED).seconds
        for f in _FIG3_FRACTIONS
    ]
    return p, row


def test_fig3_row_values(fig3_row):
    p, row = fig3_row
    for got, want in zip(row, _FIG3_GOLDEN[p]):
        assert got == pytest.approx(want, rel=_FIG3_RTOL)


def test_fig3_readers_help(fig3_row):
    p, row = fig3_row
    excl, rw = row[0], row[1:]
    if p < 8:
        # without real contention all configurations are within a few %
        assert max(row) < 1.1 * min(row)
        return
    # readers-only is the cheapest read-write configuration (combining)
    # and clearly beats the exclusive lock once contention is real
    assert rw[-1] == min(rw)
    assert rw[-1] < 0.7 * excl
    # read share >= 20% improves monotonically toward readers-only
    assert rw[1] > rw[2] > rw[3] > rw[4] > rw[5]


def test_fig3_exclusive_scales_linearly():
    t2 = measure_lock("hardware", 2, 0.0, ops=_FIG3_OPS, seed=_FIG3_SEED).seconds
    t8 = measure_lock("hardware", 8, 0.0, ops=_FIG3_OPS, seed=_FIG3_SEED).seconds
    # 4x the processors -> about 2x the total time for 40 ops each
    # (EXPERIMENTS.md: 0.053 s -> 0.101 s)
    assert 1.5 < t8 / t2 < 2.5


@pytest.fixture(scope="module", params=sorted(_FIG4_GOLDEN))
def fig4_row(request):
    """One recomputed FIG4 row: (P, {algorithm: µs})."""
    p = request.param
    row = {
        name: figure4_point(name, p, _FIG4_REPS, _FIG4_SEED).seconds * 1e6
        for name in _FIG4_GOLDEN[p]
    }
    return p, row


def test_fig4_row_values(fig4_row):
    p, row = fig4_row
    for name, want in _FIG4_GOLDEN[p].items():
        assert row[name] == pytest.approx(want, rel=_FIG4_RTOL), name


def test_fig4_paper_orderings(fig4_row):
    p, row = fig4_row
    if p < 8:
        pytest.skip("orderings pinned at P=8, where contention separates them")
    # dissemination leads the field at P=8 (EXPERIMENTS.md row)
    assert row["dissemination"] == min(row.values())
    # every global-wakeup (M) variant beats its tree-wakeup original
    for name in ("tree", "tournament", "mcs"):
        assert row[f"{name}(M)"] < row[name]
    # the hot-spot counter barrier has fallen behind the system barrier
    assert row["counter"] > row["system"]
