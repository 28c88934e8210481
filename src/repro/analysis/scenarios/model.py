"""Symbolic product model of the ALLCACHE protocol for scenario generation.

A *scenario* is a bounded global interleaving of protocol operations
over a few cells and subpages.  This module gives those interleavings
semantics: a :class:`ScenarioModel` is the product of one
:class:`~repro.analysis.modelcheck.CoherenceModel` per subpage
(subpages are independent in the protocol — the directory, locking and
snarfing are all per-subpage) plus *data* semantics: every write
deposits a distinct value (its global step index + 1), so read
observations reveal exactly which write each copy reflects.

The per-subpage relation is the real protocol's:
:class:`~repro.analysis.modelcheck.CoherenceModel` runs each action on
a one-subpage machine and abstracts the result.  What the differential
oracle then checks against real multi-subpage runs is the product
(subpages really are independent) and the data spec (a read returns
the last write).  The action vocabulary is the simulator's
:data:`~repro.coherence.litmus.SCHEDULE_OPS` (``evict`` is a
capacity-replacement artifact with no program-visible trigger and is
excluded from schedules).

Everything here is deterministic and hashable, so behaviour keys are
stable across processes and can key the sweep result cache.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Optional

from repro.analysis import MODEL_VERSION
from repro.analysis.modelcheck import (
    CoherenceModel,
    InvariantViolation,
    ModelChecker,
    ModelState,
)
from repro.coherence.litmus import SCHEDULE_OPS
from repro.errors import ConfigError, ProtocolError

__all__ = [
    "MODEL_VERSION",
    "Step",
    "ProductState",
    "Prediction",
    "ScenarioModel",
    "run_model",
    "canonicalize",
    "is_canonical",
    "behaviour_key",
]

#: One scenario step: ``(op, cell, subpage)`` with ``op`` in
#: :data:`~repro.coherence.litmus.SCHEDULE_OPS`.
Step = tuple[str, int, int]

#: Product state: one abstract per-subpage state per subpage.
ProductState = tuple[ModelState, ...]


@dataclass(frozen=True)
class Prediction:
    """The model's verdict on one schedule.

    ``observations`` pairs each read step's schedule index with the
    value the model says it returns.  State vectors are ``[subpage]
    [cell]``; ``directory_states`` uses :class:`SubpageState` names
    (``None`` — no copy) so it compares directly against the
    simulator-side :class:`~repro.coherence.litmus.ScheduleOutcome`.
    ``fresh`` is model-only (the simulator's word store is globally
    authoritative, so staleness is not separately observable there).
    ``completed`` is ``False`` when a step was not enabled in its
    pre-state — the model predicts the schedule cannot execute.
    """

    completed: bool
    blocked_at: Optional[int]
    observations: tuple[tuple[int, Any], ...]
    directory_states: tuple[tuple[Optional[str], ...], ...]
    fresh: tuple[tuple[bool, ...], ...]
    created: tuple[bool, ...]
    memory: tuple[Any, ...]
    quiescent: bool


class ScenarioModel:
    """Product of per-subpage protocol relations, plus data.

    The per-subpage relation is the model's own :class:`CoherenceModel`
    (so its memo lives as long as this model); the data primitives
    :meth:`write_value` and :meth:`read_value` are separate methods so
    mutation tests can damage the observation channel without touching
    the state relation.
    """

    def __init__(self, n_cells: int, n_subpages: int):
        if n_subpages < 1:
            raise ConfigError(f"need at least 1 subpage, got {n_subpages}")
        self.cell_model = CoherenceModel(n_cells)
        self.n_cells = n_cells
        self.n_subpages = n_subpages
        self._checker = ModelChecker(self.n_cells, model=self.cell_model)

    # ------------------------------------------------------------------
    # Transition relation (product of the per-subpage protocol relation)
    # ------------------------------------------------------------------

    def initial(self) -> ProductState:
        """Pristine product state: every subpage uncreated, no copies."""
        return tuple(self.cell_model.initial() for _ in range(self.n_subpages))

    def enabled(self, state: ProductState) -> list[Step]:
        """Enabled steps, in deterministic ``(subpage, cell, op)`` order."""
        steps: list[Step] = []
        for sp, sub in enumerate(state):
            for op, cell in self.cell_model.enabled(sub):
                if op in SCHEDULE_OPS:
                    steps.append((op, cell, sp))
        steps.sort(key=lambda s: (s[2], s[1], SCHEDULE_OPS.index(s[0])))
        return steps

    def apply(self, state: ProductState, step: Step) -> ProductState:
        """Apply one step to its subpage's component; others untouched."""
        op, cell, sp = step
        if not 0 <= sp < self.n_subpages:
            raise ConfigError(f"subpage {sp} out of range")
        new_sub = self.cell_model.apply(state[sp], (op, cell))
        return state[:sp] + (new_sub,) + state[sp + 1 :]

    def quiescent(self, state: ProductState) -> bool:
        """No cell holds any subpage atomic (every lock released)."""
        return all(self.cell_model.quiescent(sub) for sub in state)

    def drain_steps(self, state: ProductState) -> tuple[Step, ...]:
        """A witness suffix driving every subpage to quiescence.

        Built from :meth:`ModelChecker.drain_path` per subpage — the
        quiescence invariant's witness made concrete, so every lowered
        schedule terminates with all locks released.
        """
        suffix: list[Step] = []
        for sp, sub in enumerate(state):
            for op, cell in self._checker.drain_path(sub):
                if op not in SCHEDULE_OPS:
                    raise InvariantViolation(
                        f"drain path for subpage {sp} uses non-lowerable op {op!r}"
                    )
                suffix.append((op, cell, sp))
        return tuple(suffix)

    # ------------------------------------------------------------------
    # Data semantics (overridable for mutation tests)
    # ------------------------------------------------------------------

    def write_value(self, index: int) -> Any:
        """The value the write at schedule position ``index`` deposits.

        Distinct per position, so observations identify their source
        write uniquely.
        """
        return index + 1

    def read_value(self, memory_value: Any) -> Any:
        """The value a (fresh-filling) read observes."""
        return memory_value


def run_model(model: ScenarioModel, steps: tuple[Step, ...]) -> Prediction:
    """Execute ``steps`` on the abstract model; never raises.

    A step that is not enabled in its pre-state (or whose application
    violates a model invariant) stops the run with ``completed=False``
    and the offending index — the model's analogue of the simulator
    deadlocking or livelocking there.
    """
    state = model.initial()
    memory: list[Any] = [0] * model.n_subpages
    observations: list[tuple[int, Any]] = []
    blocked_at: Optional[int] = None
    for index, step in enumerate(steps):
        op, _cell, sp = step
        if step not in model.enabled(state):
            blocked_at = index
            break
        try:
            state = model.apply(state, step)
        except (InvariantViolation, ProtocolError):
            blocked_at = index
            break
        if op == "write":
            memory[sp] = model.write_value(index)
        elif op == "read":
            observations.append((index, model.read_value(memory[sp])))
    return _prediction(model, state, observations, memory, blocked_at)


def _prediction(
    model: ScenarioModel,
    state: ProductState,
    observations: list[tuple[int, Any]],
    memory: list[Any],
    blocked_at: Optional[int],
) -> Prediction:
    directory_states = tuple(
        tuple(st.name if st is not None else None for st, _fresh in copies)
        for _created, copies in state
    )
    fresh = tuple(
        tuple(f for _st, f in copies) for _created, copies in state
    )
    created = tuple(c for c, _copies in state)
    return Prediction(
        completed=blocked_at is None,
        blocked_at=blocked_at,
        observations=tuple(observations),
        directory_states=directory_states,
        fresh=fresh,
        created=created,
        memory=tuple(memory),
        quiescent=model.quiescent(state),
    )


# ----------------------------------------------------------------------
# Canonicalization (symmetry reduction) and behaviour keys
# ----------------------------------------------------------------------


def canonicalize(
    steps: tuple[Step, ...],
) -> tuple[tuple[Step, ...], dict[int, int], dict[int, int]]:
    """Relabel cells and subpages by order of first appearance.

    The protocol is symmetric under permuting cell ids and subpage ids
    (no step's semantics depends on the numeric label), so every
    schedule is equivalent to exactly one *canonical* schedule — the
    one whose cells and subpages are introduced as ``0, 1, 2, ...``.
    Returns the canonical schedule plus the two relabelling maps.
    """
    cell_map: dict[int, int] = {}
    sp_map: dict[int, int] = {}
    out: list[Step] = []
    for op, cell, sp in steps:
        c = cell_map.setdefault(cell, len(cell_map))
        s = sp_map.setdefault(sp, len(sp_map))
        out.append((op, c, s))
    return tuple(out), cell_map, sp_map


def is_canonical(steps: tuple[Step, ...]) -> bool:
    """Whether ``steps`` is its own symmetry-class representative."""
    return canonicalize(steps)[0] == tuple(steps)


def _digest(
    model: ScenarioModel,
    observations: tuple[tuple[int, Any], ...],
    state: ProductState,
    memory: tuple[Any, ...],
) -> str:
    """Behaviour-class identity: observed-value history + final state."""
    payload = repr((model.n_cells, model.n_subpages, observations, state, memory))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def behaviour_key(model: ScenarioModel, steps: tuple[Step, ...]) -> str:
    """The behaviour-equivalence class of ``steps``' symmetry class.

    Canonicalizes first, so any two symmetric schedules get the same
    key by construction; schedules whose canonical forms differ get
    the same key iff the model predicts identical observations and
    identical final abstract state.
    """
    canon, _, _ = canonicalize(tuple(steps))
    state = model.initial()
    memory: list[Any] = [0] * model.n_subpages
    observations: list[tuple[int, Any]] = []
    for index, step in enumerate(canon):
        op, _cell, sp = step
        if step not in model.enabled(state):
            raise ConfigError(f"step {index} {step!r} is not enabled; not a model schedule")
        state = model.apply(state, step)
        if op == "write":
            memory[sp] = model.write_value(index)
        elif op == "read":
            observations.append((index, model.read_value(memory[sp])))
    return _digest(model, tuple(observations), state, tuple(memory))
