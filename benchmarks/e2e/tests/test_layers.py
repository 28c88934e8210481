"""The module -> layer table covers ``repro`` exactly; the fold charges callers."""

from __future__ import annotations

import cProfile
import heapq
import pstats
from pathlib import Path

import repro

from benchmarks.e2e.layers import (
    LAYER_RULES, SIM_LAYERS, fold_profile, matching_rules, module_names,
)

PACKAGE = Path(repro.__file__).parent


def test_every_module_maps_to_exactly_one_layer():
    modules = module_names(PACKAGE)
    assert "repro.sim.engine" in modules and "repro" in modules
    bad = {m: matching_rules(m) for m in modules if len(matching_rules(m)) != 1}
    assert not bad, f"modules without exactly one layer rule: {bad}"


def test_every_rule_is_used_and_names_a_layer():
    modules = module_names(PACKAGE)
    assert set(LAYER_RULES.values()) == set(SIM_LAYERS)
    used = {rule for module in modules for rule in matching_rules(module)}
    assert used == set(LAYER_RULES)


def test_fold_charges_builtins_to_the_calling_repro_module():
    from repro.sim.engine import Engine

    engine = Engine()
    profiler = cProfile.Profile()
    profiler.enable()
    for i in range(2000):
        engine.schedule(i, lambda: None)
    engine.run()
    heap: list[int] = []
    for i in range(2000):  # heappush called from this test: not repro code
        heapq.heappush(heap, i)
    profiler.disable()
    folded = fold_profile(pstats.Stats(profiler), PACKAGE)
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    push = next(key for key in stats if key[2] == "<built-in method _heapq.heappush>")
    from_engine = sum(t for caller, (_, _, t, _) in stats[push][4].items()
                      if "repro/sim" in caller[0])
    assert from_engine > 0
    assert folded["engine"]["self_s"] >= from_engine
    assert folded["engine"]["calls"] >= 4000  # schedule + run's callbacks
    assert folded["memory"]["calls"] == 0
