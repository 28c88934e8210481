"""Host speed, sampled beside a workload, to scale its timings by.

The benchmark runs on a shared 2-vCPU virtual machine whose speed
changes by up to a factor of two, in levels lasting seconds to minutes,
for two reasons:

* *steal*: the hypervisor holds a vCPU that has work to do, for up to
  a third of its time in some periods and hardly at all in others;
* *hardware*: other tenants contend for the physical cores and caches,
  so the same instructions take more CPU time.

The two vCPUs do not slow alike, and no amount of repetition inside a
run removes a slow level that outlasts the run.  What does: a
*sampler* process pinned to the vCPU the measured program runs on.
Every :data:`PERIOD_S` it runs a short, fixed, benchmark-owned piece of
interpreter work (:func:`reference`, about 2 ms), records the CPU
seconds it took, and reads its vCPU's busy and steal counters from
``/proc/stat``.  A timing over ``[t0, t1]`` is then scaled with the
samples taken within :data:`PAD_S` of it:

* the hardware factor ``NOMINAL_S / mean(reference CPU seconds)``
  applies to every timing;
* a wall-clock time of busy work is also multiplied by
  ``1 - steal share``, the share of the vCPU's wanted time the
  hypervisor held;
* a CPU time, which steal does not inflate, gets the hardware factor
  only.

A scaled time reads as the time the same work would take on a vCPU
with no steal where the reference takes :data:`NOMINAL_S` of CPU.  Both
corrections rest on CPU time and kernel counters, not on the sampler's
wall time, so it does not matter that the sampler waits for its vCPU
while the program runs.  The sampler takes about 2 % of that vCPU.  The
reference is part of the benchmark, never of ``src/``, so a change to
the program moves the timings and not the scale.

Start the sampler with :class:`HostSpeed`.  The sampler itself is
``python -m benchmarks.e2e.hostspeed FILE CPU``: pinned to vCPU
``CPU``, it appends one ``start end cpu_s busy steal`` line per repeat
to ``FILE`` until it is terminated or the process that started it
exits.
"""

from __future__ import annotations

import bisect
import heapq
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

__all__ = ["NOMINAL_S", "PERIOD_S", "PAD_S", "reference", "cpu_counters", "HostSpeed",
           "main"]

#: CPU seconds :func:`reference` takes on the host the scaled times refer to.
NOMINAL_S = 0.0025
#: A repeat of the reference starts this often (s).
PERIOD_S = 0.1
#: Samples this far outside a timed interval still count for it (s).
PAD_S = 0.5


class _Event:
    __slots__ = ("t", "cell", "addr")

    def __init__(self, t: int, cell: int, addr: int):
        self.t, self.cell, self.addr = t, cell, addr


class _Cell:
    __slots__ = ("lines", "hits", "misses")

    def __init__(self):
        self.lines: dict[int, int] = {}
        self.hits = self.misses = 0

    def access(self, addr: int, t: int) -> int:
        line = addr >> 7
        if line in self.lines:
            self.hits += 1
            return 2
        self.misses += 1
        if len(self.lines) > 64:
            self.lines.pop(next(iter(self.lines)))
        self.lines[line] = t
        return 20


def reference(steps: int = 1000) -> int:
    """Fixed interpreter work shaped like the simulator's inner loop.

    An event heap drives accesses to small per-cell line tables: object
    attributes, method calls, dict lookups and integer arithmetic.
    Returns the hit count, the same on every call.
    """
    cells = [_Cell() for _ in range(8)]
    queue: list[tuple[int, int, _Event]] = []
    x = 12345
    for i in range(64):
        heapq.heappush(queue, (i, i, _Event(i, i % 8, i * 64)))
    for k in range(steps):
        t, _, event = heapq.heappop(queue)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        cost = cells[event.cell].access(event.addr ^ (x & 0x3FF0), t)
        heapq.heappush(queue, (t + cost, k + 64, _Event(t + cost, x % 8, x & 0xFFFF)))
    return sum(cell.hits for cell in cells)


def cpu_counters(cpu: int) -> tuple[int, int]:
    """``(busy, steal)`` clock ticks of vCPU ``cpu`` since boot, from ``/proc/stat``.

    Busy is user, nice, system, irq and softirq time.
    """
    with open("/proc/stat", encoding="ascii") as stat:
        for line in stat:
            fields = line.split()
            if fields[0] == f"cpu{cpu}":
                user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, fields[1:9])
                return user + nice + system + irq + softirq, steal
    raise ValueError(f"no cpu{cpu} in /proc/stat")


class HostSpeed:
    """A sampler on vCPU ``cpu`` from :meth:`start` to :meth:`stop`, then its samples.

    Also a context manager.  The scaling methods are valid after
    :meth:`stop`; their ``t0`` and ``t1`` are ``time.perf_counter()``
    readings, which on Linux share the sampler's clock
    (``CLOCK_MONOTONIC``).
    """

    def __init__(self, workdir: Path, cpu: int):
        self.path = workdir / "hostspeed.txt"
        self.cpu = cpu
        self._proc: subprocess.Popen | None = None
        self._mid: list[float] = []
        self._wall: list[float] = []
        self._cpu: list[float] = []
        self._busy: list[float] = []
        self._steal: list[float] = []

    def start(self) -> "HostSpeed":
        self.path.unlink(missing_ok=True)
        self._proc = subprocess.Popen([sys.executable, "-m", "benchmarks.e2e.hostspeed",
                                       str(self.path), str(self.cpu)])
        # Let it import and take a first sample before the timed work.
        deadline = time.perf_counter() + 30.0
        while not (self.path.exists() and self.path.read_text().count("\n") >= 2):
            if self._proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("host-speed sampler did not start")
            time.sleep(0.01)
        return self

    def stop(self) -> None:
        """End the sampler (if it runs) and load what it sampled."""
        if self._proc is None:
            return
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc = None
        self.load()

    def load(self) -> None:
        """Read the samples the sampler wrote to :attr:`path` (none if it wrote none)."""
        text = self.path.read_text() if self.path.exists() else ""
        rows = [tuple(map(float, line.split())) for line in text.splitlines()
                if line.count(" ") == 4]
        self._mid = [(start + end) / 2 for start, end, *_ in rows]
        self._wall = [end - start for start, end, *_ in rows]
        self._cpu = [row[2] for row in rows]
        self._busy = [row[3] for row in rows]
        self._steal = [row[4] for row in rows]

    __enter__ = start

    def __exit__(self, *exc) -> None:
        self.stop()

    def _window(self, t0: float, t1: float) -> tuple[int, int]:
        """Samples within :data:`PAD_S` of ``[t0, t1]``; at least the nearest few."""
        if len(self._cpu) < 3:
            raise RuntimeError("too few host-speed samples")
        lo = bisect.bisect_left(self._mid, t0 - PAD_S)
        hi = bisect.bisect_right(self._mid, t1 + PAD_S)
        if hi - lo < 3:
            lo, hi = max(0, lo - 2), min(len(self._cpu), hi + 2)
        return lo, hi

    def hardware(self, t0: float, t1: float) -> float:
        """``NOMINAL_S`` over the mean reference CPU seconds near ``[t0, t1]``."""
        lo, hi = self._window(t0, t1)
        return NOMINAL_S / statistics.fmean(self._cpu[lo:hi])

    def steal(self, t0: float, t1: float) -> float:
        """Share of the vCPU's wanted time the hypervisor held near ``[t0, t1]``."""
        lo, hi = self._window(t0, t1)
        busy = self._busy[hi - 1] - self._busy[lo]
        stolen = self._steal[hi - 1] - self._steal[lo]
        return stolen / (busy + stolen) if busy + stolen > 0 else 0.0

    def factor(self, t0: float, t1: float) -> float:
        """What turns a wall-clock time of busy work over ``[t0, t1]`` into nominal time."""
        return (1.0 - self.steal(t0, t1)) * self.hardware(t0, t1)

    def scaled(self, t0: float, t1: float) -> float:
        """Nominal-host seconds of busy work over the wall-clock interval ``[t0, t1]``."""
        return (t1 - t0) * self.factor(t0, t1)

    def scaled_cpu(self, cpu_s: float, t0: float, t1: float) -> float:
        """Nominal-host seconds of ``cpu_s`` CPU seconds spent over ``[t0, t1]``."""
        return cpu_s * self.hardware(t0, t1)

    def report(self) -> dict[str, float]:
        """The run's samples in brief."""
        first, last = self._mid[0], self._mid[-1]
        return {
            "host.samples": len(self._cpu),
            "host.ref_cpu_p50_ms": statistics.median(self._cpu) * 1e3,
            "host.hardware": self.hardware(first, last),
            "host.steal_share": self.steal(first, last),
        }


def main(argv: list[str] | None = None) -> int:
    path, arg = sys.argv[1:] if argv is None else argv
    vcpu, parent = int(arg), os.getppid()
    os.sched_setaffinity(0, {vcpu})
    with open(path, "a", encoding="utf-8", buffering=1) as out:
        reference()  # warm the code paths before the first sample
        # Runs until terminated, or until the process that started it is gone.
        while os.getppid() == parent:
            start, cpu = time.perf_counter(), time.thread_time()
            reference()
            end, cpu = time.perf_counter(), time.thread_time() - cpu
            busy, steal = cpu_counters(vcpu)
            out.write(f"{start:.6f} {end:.6f} {cpu:.6f} {busy} {steal}\n")
            time.sleep(max(0.0, PERIOD_S - (time.perf_counter() - start)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
