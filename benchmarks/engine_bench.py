"""Engine throughput meter: events/sec on the pinned acceptance workloads.

Two workloads, each run on the default machine (retry batching on) and
on the per-event reference (the same machine with its retry batcher's
one predicate, ``protocol.batch_advancer.batchable``, made to refuse):

* **fig3** — 32 processors fighting over one hardware exclusive lock
  (the paper's Figure 3 point with the most ring traffic; >90 % of
  events are hardware ``get_subpage`` retries, the chain shape the
  batching core coalesces).
* **fig4** — 16 processors in a counter barrier (Figure 4's most
  contended algorithm: lock traffic plus spin-wait phases).

Measured by the engine's own ``Engine.stats`` counter.  Usable as::

    python benchmarks/engine_bench.py                  # print the numbers
    python benchmarks/engine_bench.py --out bench.json # also write JSON
    python benchmarks/engine_bench.py --check          # exit 1 on a guard

Rows are labelled ``batching: on`` (default) and ``batching: off``
(per-event reference).

The JSON entry shape matches the committed ``BENCH_engine.json`` history
file at the repository root, so a new measurement can be appended
verbatim.  ``--check`` exits 1 unless:

* every run fires the event count the newest ``BENCH_engine.json`` row
  of its workload records (byte-identity is the batching contract, and
  the model itself must not move under an engine change);
* batching makes fig3 faster than its per-event reference;
* the bare engine heap dispatches more than 100,000 null-callback
  events per second (an order-of-magnitude floor, loose enough for
  slow hosts).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.machine.api import SharedMemory
from repro.machine.config import MachineConfig, TimerConfig
from repro.machine.ksr import KsrMachine
from repro.sim.engine import Engine
from repro.sim.process import LocalOps
from repro.sync.barriers import make_barrier
from repro.sync.locks import HardwareExclusiveLock, LockWorkloadParams, run_lock_workload

#: The measured workloads, stated once so the history stays comparable.
WORKLOAD = "fig3 hardware-lock workload: 32 procs, 30 ops/proc, seed 303"
WORKLOAD_FIG4 = "fig4 counter-barrier workload: 16 procs, 40 reps, seed 404"

#: Matches the inter-episode compute of ``experiments.barriers``.
_INTER_EPISODE_OPS = 20

#: The committed history whose event counts ``--check`` pins.
BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
#: Null-callback events the raw dispatch floor pushes through the heap.
DISPATCH_EVENTS = 200_000
#: Raw dispatch floor, events/sec.
DISPATCH_FLOOR = 100_000


def _machine(config: MachineConfig, reference: bool) -> KsrMachine:
    """The default machine, or with ``reference`` its per-event twin."""
    machine = KsrMachine(config)
    if reference:
        machine.protocol.batch_advancer.batchable = lambda: False
    return machine


def _record(machine: KsrMachine, workload: str, reference: bool) -> dict:
    stats = machine.engine.stats
    return {
        "workload": workload,
        "batching": "off" if reference else "on",
        "events": stats.events_fired,
        "batched_events": stats.batched_events,
        "wall_seconds": round(stats.wall_seconds, 4),
        "events_per_sec": round(stats.events_per_sec),
    }


def measure(
    n_procs: int = 32, ops: int = 30, seed: int = 303, *, reference: bool = False
) -> dict:
    """Run the fig3 lock workload once; return engine throughput stats."""
    machine = _machine(MachineConfig.ksr1(n_cells=n_procs, seed=seed), reference)
    mem = SharedMemory(machine)
    lock = HardwareExclusiveLock(mem)
    params = LockWorkloadParams(ops_per_processor=ops, read_fraction=0.0, seed=seed)
    run_lock_workload(machine, lock, params, n_threads=n_procs)
    return _record(machine, WORKLOAD, reference)


def measure_fig4(
    n_procs: int = 16, reps: int = 40, seed: int = 404, *, reference: bool = False
) -> dict:
    """Run the fig4 counter-barrier workload once; return engine stats.

    Mirrors ``experiments.barriers.measure_barrier`` (timer off, same
    inter-episode compute) so the event population is the one the
    figure-4 sweep generates.
    """
    machine = _machine(
        MachineConfig.ksr1(n_cells=n_procs, seed=seed, timer=TimerConfig(enabled=False)),
        reference,
    )
    mem = SharedMemory(machine)
    barrier = make_barrier("counter", mem, n_procs)

    def body(pid: int):
        for episode in range(reps):
            yield LocalOps(_INTER_EPISODE_OPS)
            yield from barrier.wait(pid, episode)

    for i in range(n_procs):
        machine.spawn(f"bar-{i}", body(i), i)
    machine.run()
    return _record(machine, WORKLOAD_FIG4, reference)


def measure_dispatch() -> dict:
    """Push null-callback events through a bare engine heap."""
    engine = Engine()

    def callback() -> None:
        pass

    for i in range(DISPATCH_EVENTS):
        engine.schedule(float(i % 97), callback)
    engine.run()
    stats = engine.stats
    return {"events": stats.events_fired, "events_per_sec": round(stats.events_per_sec)}


def recorded_events() -> dict[str, int]:
    """Each workload's event count in the newest row of its history."""
    data = json.loads(BENCH_FILE.read_text(encoding="utf-8"))
    return {part["workload"]: part["history"][-1]["events"] for part in (data, data["fig4"])}


def run_all() -> list[dict]:
    """All four pinned measurements: both workloads, reference and default."""
    return [
        measure(reference=True),
        measure(),
        measure_fig4(reference=True),
        measure_fig4(),
    ]


def check(entries: list[dict], dispatch: dict, recorded: dict[str, int]) -> list[str]:
    """Regression guards: no run may lose or gain events, batching must
    pay on fig3, and raw dispatch must clear its floor."""
    problems: list[str] = []
    for entry in entries:
        expected = recorded[entry["workload"]]
        if entry["events"] != expected:
            problems.append(
                f"{entry['workload']} (batching {entry['batching']}): "
                f"{entry['events']} events, BENCH_engine.json records {expected}"
            )
    by_key = {(e["workload"], e["batching"]): e for e in entries}
    fig3_off, fig3_on = by_key.get((WORKLOAD, "off")), by_key.get((WORKLOAD, "on"))
    if fig3_off and fig3_on and fig3_on["events_per_sec"] <= fig3_off["events_per_sec"]:
        problems.append(
            f"fig3: batching on is not faster "
            f"({fig3_on['events_per_sec']} <= {fig3_off['events_per_sec']} ev/s)"
        )
    if dispatch["events"] != DISPATCH_EVENTS:
        problems.append(f"raw dispatch fired {dispatch['events']} of {DISPATCH_EVENTS} events")
    if dispatch["events_per_sec"] <= DISPATCH_FLOOR:
        problems.append(
            f"raw dispatch: {dispatch['events_per_sec']} ev/s, floor {DISPATCH_FLOOR}"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", metavar="FILE", help="write the measurements as JSON")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero if an event count moves, fig3 batching does not pay, "
        "or raw dispatch is below its floor",
    )
    args = parser.parse_args(argv)
    entries = run_all()
    for record in entries:
        print(
            f"[batching {record['batching']:>3}] {record['events']} events "
            f"({record['batched_events']} batched) in {record['wall_seconds']:.2f}s "
            f"= {record['events_per_sec']} events/sec  ({record['workload']})"
        )
    dispatch = measure_dispatch()
    print(
        f"[raw dispatch] {dispatch['events']} null-callback events "
        f"= {dispatch['events_per_sec']} events/sec"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"entries": entries}, fh, indent=2)
            fh.write("\n")
        print(f"written to {args.out}")
    if args.check:
        problems = check(entries, dispatch, recorded_events())
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        if problems:
            return 1
        print("checks passed: recorded event counts, fig3 batching pays, dispatch floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
