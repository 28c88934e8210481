"""Ablation benchmarks for the design choices DESIGN.md calls out.

Three studies that take the architecture apart feature by feature:

1. **Read-snarfing** — how much do the global-wakeup barriers owe to
   combined re-reads?  (The paper credits snarfing for tree(M)'s
   "remarkable performance enhancement".)
2. **Random vs LRU replacement** — the paper blames the sub-cache's
   random replacement for SP's thrashing; the event-level caches can
   run either policy.
3. **Poststore in synchronization** — the (M) barriers with and
   without the explicit push.
"""

import numpy as np
from dataclasses import replace

from repro.experiments.barriers import measure_barrier
from repro.machine.config import CacheConfig, MachineConfig, TimerConfig
from repro.memory.cache_sets import SetAssociativeCache


def _quiet(n, *, snarfing=True):
    return replace(
        MachineConfig.ksr1(n_cells=n, timer=TimerConfig(enabled=False)),
        enable_snarfing=snarfing,
    )


def test_bench_ablation_snarfing(benchmark, show):
    """Global-flag barrier with and without read-snarfing."""

    def run():
        with_snarf = measure_barrier(
            "tree(M)", 32, machine_config=_quiet(32, snarfing=True), reps=8
        ).seconds
        without = measure_barrier(
            "tree(M)", 32, machine_config=_quiet(32, snarfing=False), reps=8
        ).seconds
        return with_snarf, without

    with_snarf, without = benchmark.pedantic(run, rounds=1, iterations=1)
    import sys

    print(
        f"\nABLATION snarfing: tree(M)@32 with={with_snarf * 1e6:.1f}us "
        f"without={without * 1e6:.1f}us ({without / with_snarf:.1f}x slower)",
        file=sys.stderr,
    )
    # without combining, 31 spinners re-read serially: a large factor
    assert without > 2.0 * with_snarf


def test_bench_ablation_replacement_policy(benchmark):
    """Random vs LRU replacement on a conflict-heavy sweep.

    A cyclic sweep slightly larger than the cache is LRU's worst case
    (0% hits) and random replacement's redemption — while for a
    working set under capacity both behave the same.  This is why the
    KSR's choice is defensible in general and yet produced the
    pathological SP behaviour for specific layouts.
    """
    config = CacheConfig(total_bytes=64 * 1024, ways=4, line_bytes=128, alloc_bytes=2048)

    def sweep(policy, n_lines):
        cache = SetAssociativeCache(config, np.random.default_rng(0), policy=policy)
        for _ in range(4):
            for line in range(n_lines):
                cache.access(line * 16)  # one line per allocation unit
        return cache.hit_rate

    def run():
        over = {p: sweep(p, 40) for p in ("random", "lru")}  # 40 > 32 frames
        under = {p: sweep(p, 24) for p in ("random", "lru")}  # fits
        return over, under

    over, under = benchmark.pedantic(run, rounds=1, iterations=1)
    # cyclic over-capacity: LRU collapses to ~0, random keeps some hits
    assert over["lru"] < 0.05
    assert over["random"] > 0.15
    # under capacity both retain everything after the cold pass
    assert under["lru"] > 0.7 and under["random"] > 0.7


def test_bench_ablation_barrier_poststore(benchmark, show):
    """The (M) barriers with and without the explicit poststore push."""

    def run():
        out = {}
        for name in ("tree(M)", "tournament(M)", "mcs(M)"):
            with_ps = measure_barrier(name, 32, reps=8, use_poststore=True).seconds
            without = measure_barrier(name, 32, reps=8, use_poststore=False).seconds
            out[name] = (with_ps, without)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, (with_ps, without) in results.items():
        # with snarfing active the two deliveries are close — the
        # coherence protocol's combined re-read already does the job
        assert 0.5 < with_ps / without < 1.5
