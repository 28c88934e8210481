"""Module -> layer table for the simulator profile, and the profile fold.

The traced run of a simulator workload profiles one pass with cProfile
and folds every function's self time into one of :data:`SIM_LAYERS`.
A function of ``repro`` is charged to its module's layer.  Any other
function (builtins, the standard library, numpy) is charged to the
``repro`` code that called it, split by the time each caller spent in
it, so ``heapq.heappush`` counts as engine time when the engine calls
it.  Time no ``repro`` caller accounts for is charged to ``other``.

A rule ending in ``.*`` covers a package and every module below it;
any other rule names exactly one module.  Every module under
``src/repro`` must match exactly one rule (the test suite enforces
this), so new code cannot escape attribution.

:func:`count_machine_runs` reads the modelled machine itself: the
engine's event counts and every cell's performance monitor, summed
over the ``KsrMachine.run`` calls of a traced window.  These counts
are exact, so a change that only speeds the simulator up must leave
them unchanged.
"""

from __future__ import annotations

import pstats
import threading
from pathlib import Path

__all__ = ["SIM_LAYERS", "SERVICE_LAYERS", "LAYER_RULES", "MACHINE_COUNTERS", "layer_of",
           "matching_rules", "module_names", "fold_profile", "count_machine_runs"]

SIM_LAYERS = (
    "engine", "cell", "memory", "coherence", "ring",
    "kernels", "sync", "sweep", "driver", "other",
)
#: Service layers, timed by spans around calls into ``repro.service``
#: (see :mod:`benchmarks.e2e.launcher`); a simulator run has only the
#: sweep cache (``cache_read``/``cache_write``) and point ``compute``.
SERVICE_LAYERS = (
    "http", "admission", "queue", "execute", "cache_read", "cache_write",
    "compute", "route", "rpc", "replicate",
)

_EXPERIMENT_DRIVERS = (
    "barriers", "base", "cg_formats", "cg_scaling", "cli", "degraded",
    "ep_scaling", "figure8", "future_features", "is_scaling", "latency",
    "locks", "other_archs", "projection", "sp_scaling",
)
_SERVICE_MODULES = ("app", "backends", "batching", "cli", "jobs", "scheduler")

LAYER_RULES: dict[str, str] = {
    "repro.sim.*": "engine",
    "repro.machine.*": "cell",
    "repro.memory": "memory",
    "repro.memory.address": "memory",
    "repro.memory.cache_sets": "memory",
    "repro.memory.local_cache": "memory",
    "repro.memory.perfmon": "memory",
    "repro.memory.subcache": "memory",
    "repro.coherence.*": "coherence",
    "repro.ring.*": "ring",
    "repro.kernels.*": "kernels",
    "repro.memory.analytic_cache": "kernels",
    "repro.memory.streams": "kernels",
    "repro.sync.*": "sync",
    "repro.experiments.sweep": "sweep",
    "repro.service.cache2": "sweep",
    "repro.experiments": "driver",
    **{f"repro.experiments.{name}": "driver" for name in _EXPERIMENT_DRIVERS},
    "repro.metrics.*": "driver",
    "repro": "other",
    "repro._version": "other",
    "repro.errors": "other",
    "repro.analysis.*": "other",
    "repro.faults.*": "other",
    "repro.obs.*": "other",
    "repro.util.*": "other",
    "repro.service": "other",
    **{f"repro.service.{name}": "other" for name in _SERVICE_MODULES},
    "repro.service.fleet.*": "other",
}


def _matches(rule: str, module: str) -> bool:
    if rule.endswith(".*"):
        package = rule[:-2]
        return module == package or module.startswith(package + ".")
    return module == rule


def matching_rules(module: str) -> list[str]:
    """Every rule of :data:`LAYER_RULES` that covers ``module``."""
    return [rule for rule in LAYER_RULES if _matches(rule, module)]


def layer_of(module: str) -> str:
    """The layer of a ``repro`` module; raises if not exactly one rule fits."""
    rules = matching_rules(module)
    if len(rules) != 1:
        raise KeyError(f"{module} matches {len(rules)} layer rules: {rules}")
    return LAYER_RULES[rules[0]]


#: Modelled-machine counters: name -> (source, *fields), fields summed.
#: ``engine`` reads ``KsrMachine.engine.stats`` (``sim_time`` is the clock
#: in cycles); ``perf`` reads the cells' summed ``PerfMonitor``.
MACHINE_COUNTERS = {
    "sim.events": ("engine", "events_fired"),
    "sim.batched_events": ("engine", "batched_events"),
    "sim.cycles": ("engine", "sim_time"),
    "mem.subcache_hits": ("perf", "subcache_hits"),
    "mem.subcache_misses": ("perf", "subcache_misses"),
    "mem.local_hits": ("perf", "local_cache_hits"),
    "mem.local_misses": ("perf", "local_cache_misses"),
    "ring.transactions": ("perf", "ring_transactions"),
    "ring.retries": ("perf", "get_subpage_retries", "ring_retries"),
    "ring.wait_cycles": ("perf", "ring_wait_cycles"),
}


def count_machine_runs(counters: dict[str, float], active=lambda: True):
    """Wrap ``KsrMachine.run`` to add each run's counter deltas to ``counters``.

    Runs for which ``active()`` is false are not counted.  Returns a
    function that restores the original method.
    """
    from repro.machine.ksr import KsrMachine

    original = KsrMachine.run
    lock = threading.Lock()
    for name in MACHINE_COUNTERS:
        counters.setdefault(name, 0)

    def snapshot(machine: KsrMachine) -> dict[str, float]:
        sources = {"engine": machine.engine.stats, "perf": machine.total_perf()}
        return {name: sum(getattr(sources[source], attr) for attr in attrs)
                for name, (source, *attrs) in MACHINE_COUNTERS.items()}

    def run(self: KsrMachine, *args, **kwargs):
        if not active():
            return original(self, *args, **kwargs)
        before = snapshot(self)
        try:
            return original(self, *args, **kwargs)
        finally:
            after = snapshot(self)
            with lock:
                for name, value in after.items():
                    counters[name] += value - before[name]

    KsrMachine.run = run

    def restore() -> None:
        KsrMachine.run = original

    return restore


def _dotted(relative: Path) -> str:
    """``repro/sim/engine.py`` -> ``repro.sim.engine`` (packages drop ``__init__``)."""
    parts = list(relative.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def module_names(package_root: Path) -> list[str]:
    """Dotted names of every module under a package directory."""
    return [_dotted(path.relative_to(package_root.parent))
            for path in sorted(package_root.rglob("*.py"))]


def fold_profile(stats: pstats.Stats, package_root: Path) -> dict[str, dict[str, float]]:
    """Fold cProfile self time and call counts into :data:`SIM_LAYERS`.

    Returns ``layer -> {"self_s": seconds, "calls": calls}``.  Calls
    count only ``repro`` functions; self time covers everything.
    """
    raw = stats.stats  # type: ignore[attr-defined]
    root = package_root.resolve()
    own: dict[tuple, str] = {}
    for func in raw:
        path = Path(func[0]).resolve()
        if path.suffix == ".py" and path.is_relative_to(root):
            own[func] = layer_of(_dotted(path.relative_to(root.parent)))
    shares: dict[tuple, dict[str, float]] = {}

    def share(func: tuple, visiting: frozenset) -> dict[str, float]:
        """How time spent in ``func`` splits over layers (sums to 1).

        A foreign function inherits its callers' split, weighted by the
        cumulative time each caller spent in it; a call cycle among
        foreign functions is charged to ``other``.
        """
        if func in own:
            return {own[func]: 1.0}
        if func in shares:
            return shares[func]
        mix: dict[str, float] = {}
        total = 0.0
        # pstats caller entries are (ncalls, primitive calls, tottime, cumtime).
        for caller, (_, _, _, cum) in raw[func][4].items():
            if cum <= 0.0:
                continue
            part = {"other": 1.0} if caller in visiting else share(caller, visiting | {func})
            for layer, fraction in part.items():
                mix[layer] = mix.get(layer, 0.0) + cum * fraction
            total += cum
        shares[func] = {k: v / total for k, v in mix.items()} if total > 0.0 else {"other": 1.0}
        return shares[func]

    out = {layer: {"self_s": 0.0, "calls": 0} for layer in SIM_LAYERS}
    for func, (_, calls, self_s, _, callers) in raw.items():
        if func in own:
            out[own[func]]["self_s"] += self_s
            out[own[func]]["calls"] += calls
            continue
        # Charge a foreign function's self time caller by caller.
        charged = 0.0
        for caller, (_, _, caller_self, _) in callers.items():
            for layer, fraction in share(caller, frozenset({func})).items():
                out[layer]["self_s"] += caller_self * fraction
            charged += caller_self
        out["other"]["self_s"] += max(0.0, self_s - charged)
    return out
