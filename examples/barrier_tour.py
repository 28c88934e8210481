#!/usr/bin/env python
"""Barrier tour: rerun the paper's Figure 4 study at any machine size.

Compares all nine barrier algorithms of section 3.2.2 on a KSR-1 of
your chosen size, prints a Figure-4-style table, and demonstrates the
two effects the paper highlights:

* the *counter* barrier collapses because every arrival serializes on
  one subpage;
* replacing tree wakeups with one poststored global flag — the (M)
  variants — wins because read-snarfing revalidates every spinner from
  a single ring transaction.

Run:  python examples/barrier_tour.py [n_processors]
"""

import sys

from repro.experiments.barriers import DEFAULT_ALGORITHMS, measure_barrier
from repro.util.tables import Table


def main() -> None:
    n_procs = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    print(f"barrier episode times on a {n_procs}-processor KSR-1\n")
    table = Table(["algorithm", "us/episode", "vs tournament(M)"])
    times = {}
    for name in DEFAULT_ALGORITHMS:
        times[name] = measure_barrier(name, n_procs, reps=10).seconds
    reference = times["tournament(M)"]
    for name, t in sorted(times.items(), key=lambda kv: kv[1]):
        table.add_row([name, t * 1e6, f"{t / reference:.2f}x"])
    print(table.render())

    print("\nwhat to look for (the paper's Figure 4 conclusions):")
    print(" * counter at the bottom: hot-spot arrivals serialize on the ring")
    print(" * the (M) variants in front: one poststored flag + snarfing")
    print(" * MCS ~ tournament: the 4-ary tree halves the height but the")
    print("   false-shared arrival word quadruples each level's cost")

    # the poststore ablation: how much does the global flag variant
    # lose if the implementation never poststores?
    with_ps = measure_barrier("tournament(M)", n_procs, reps=10, use_poststore=True).seconds
    without = measure_barrier("tournament(M)", n_procs, reps=10, use_poststore=False).seconds
    print(f"\ntournament(M) with poststore: {with_ps * 1e6:7.1f} us")
    print(f"            without poststore: {without * 1e6:7.1f} us")


if __name__ == "__main__":
    main()
