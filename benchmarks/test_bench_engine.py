"""Engine fast-path benchmark: raw dispatch rate and the Fig. 3 workload.

``BENCH_engine.json`` at the repository root records the history of the
second number across PRs; regenerate a data point with
``python benchmarks/engine_bench.py``.
"""

from benchmarks.engine_bench import measure

from repro.sim.engine import Engine


def test_bench_engine_raw_dispatch(benchmark):
    """Upper bound: null-callback events through the engine heap."""

    def spin(n: int = 200_000) -> Engine:
        eng = Engine()
        cb = (lambda: None)
        for i in range(n):
            eng.schedule(float(i % 97), cb)
        eng.run()
        return eng

    eng = benchmark.pedantic(spin, rounds=1, iterations=1)
    stats = eng.stats
    assert stats.events_fired == 200_000
    assert stats.events_per_sec > 100_000


def test_bench_engine_fig3_lock_workload(benchmark, capsys):
    """The acceptance workload: Engine.stats events/sec under contention."""
    record = benchmark.pedantic(measure, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(
            f"  engine: {record['events']} events, "
            f"{record['events_per_sec']} events/sec ({record['workload']})"
        )
    # The committed BENCH_engine.json baseline (pre-fast-path) measured
    # ~86k events/sec on the dev machine; keep a loose floor so slower
    # CI runners don't flake while still catching order-of-magnitude
    # regressions.
    assert record["events"] == 543_483
    assert record["events_per_sec"] > 60_000
