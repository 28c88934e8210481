"""Bounded enumeration of protocol interleavings into behaviour classes.

BFS over all schedules of length ``<= depth`` drawn from the scenario
model's enabled steps, with two reductions:

* **Symmetry** — only canonical schedules are generated (a step may
  use cell ``k`` / subpage ``k`` only after cells / subpages
  ``0..k-1`` have appeared), so each cell/subpage-permutation class is
  walked exactly once.  :data:`ScenarioClass.n_members` still counts
  the full class size via the orbit of the labels actually used.
* **Behaviour partition** — every generated schedule is bucketed by
  its :func:`~repro.analysis.scenarios.model.behaviour_key`
  (observed-value history + final abstract state, memory included).
  BFS order guarantees each class's representative is a shortest
  member, which keeps the lowered simulator runs minimal.

The result is the raw material of the corpus: one executable
representative per behaviour class.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.analysis.modelcheck import InvariantViolation
from repro.analysis.scenarios.model import ScenarioModel, Step, _digest
from repro.errors import ConfigError, ProtocolError

__all__ = ["ScenarioClass", "Enumeration", "enumerate_classes"]

#: Safety valve against a damaged model exploding the walk.
MAX_SCHEDULES = 2_000_000


@dataclass(frozen=True)
class ScenarioClass:
    """One behaviour-equivalence class of bounded interleavings."""

    key: str
    #: Shortest canonical schedule realizing the behaviour.
    schedule: tuple[Step, ...]
    #: Canonical schedules observed in the class (symmetric variants
    #: not included — multiply by the label orbit for the full count).
    n_members: int


@dataclass(frozen=True)
class Enumeration:
    """All behaviour classes reachable within ``depth`` steps."""

    n_cells: int
    n_subpages: int
    depth: int
    classes: tuple[ScenarioClass, ...]
    #: Canonical schedules walked (every length ``1..depth`` prefix).
    n_schedules: int

    def digest(self) -> str:
        """Order-independent identity of the class partition."""
        import hashlib

        payload = "\n".join(sorted(c.key for c in self.classes))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def enumerate_classes(
    model: ScenarioModel,
    depth: int,
    *,
    max_schedules: int = MAX_SCHEDULES,
) -> Enumeration:
    """Walk every canonical schedule of length ``<= depth``.

    A mutated protocol (mutation tests) may make a step raise on
    application; such branches are pruned rather than fatal — the
    mutant's reachable behaviour is still fully enumerated.
    """
    if depth < 1:
        raise ConfigError(f"depth must be >= 1, got {depth}")
    counts: dict[str, int] = {}
    reps: dict[str, tuple[Step, ...]] = {}
    n_schedules = 0
    # (state, schedule, observations, memory, cells_used, subpages_used)
    init = model.initial()
    frontier: deque[
        tuple[Any, tuple[Step, ...], tuple[tuple[int, Any], ...], tuple[Any, ...], int, int]
    ] = deque([(init, (), (), (0,) * model.n_subpages, 0, 0)])
    while frontier:
        state, schedule, obs, memory, used_cells, used_subpages = frontier.popleft()
        if len(schedule) == depth:
            continue
        index = len(schedule)
        for step in model.enabled(state):
            op, cell, sp = step
            # Canonical-order pruning: a fresh cell/subpage label must
            # be the next unused one; anything beyond is a relabelling
            # of a schedule generated elsewhere in the walk.
            if cell > used_cells or sp > used_subpages:
                continue
            try:
                new_state = model.apply(state, step)
            except (InvariantViolation, ProtocolError):
                continue
            new_memory = memory
            new_obs = obs
            if op == "write":
                new_memory = memory[:sp] + (model.write_value(index),) + memory[sp + 1 :]
            elif op == "read":
                new_obs = obs + ((index, model.read_value(memory[sp])),)
            new_schedule = schedule + (step,)
            n_schedules += 1
            if n_schedules > max_schedules:
                raise ConfigError(
                    f"enumeration exceeded {max_schedules} schedules at depth "
                    f"{depth}; lower the bound or fix the model"
                )
            key = _digest(model, new_obs, new_state, new_memory)
            counts[key] = counts.get(key, 0) + 1
            if key not in reps:
                reps[key] = new_schedule
            frontier.append(
                (
                    new_state,
                    new_schedule,
                    new_obs,
                    new_memory,
                    max(used_cells, cell + 1),
                    max(used_subpages, sp + 1),
                )
            )
    classes = tuple(
        ScenarioClass(key=key, schedule=reps[key], n_members=counts[key])
        for key in sorted(reps, key=lambda k: (len(reps[k]), reps[k]))
    )
    return Enumeration(
        n_cells=model.n_cells,
        n_subpages=model.n_subpages,
        depth=depth,
        classes=classes,
        n_schedules=n_schedules,
    )
