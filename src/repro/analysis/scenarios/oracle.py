"""Lowering and the differential oracle.

Each behaviour-class representative (an abstract schedule of ``(op,
cell, subpage)`` steps) is lowered to a concrete run: one subpage-
aligned word per abstract subpage, writes carrying their globally
unique step value, executed step-at-a-time on the real simulator via
:func:`repro.coherence.litmus.run_schedule` — so the schedule *is* the
interleaving and the abstract model's sequential semantics apply
exactly.  A drain suffix from the quiescence witness
(:meth:`ModelChecker.drain_path`, via
:meth:`ScenarioModel.drain_steps`) is appended first, so every
generated run terminates with all atomic locks released.

The oracle then compares, channel by channel:

* completion — the model predicts every generated step executes; a
  simulator deadlock/livelock is a divergence (and vice versa);
* observed-value history — every read's (step index, value);
* final directory state per (subpage, cell), *and* the simulator's
  local-cache state against its own directory (an internal
  disagreement is reported even when one side matches the model);
* subpage ``created`` flags and final memory values;
* quiescence of the final state.

The per-subpage relation is the real protocol's, run on a one-subpage
machine, so what the oracle checks is the product — subpages sharing
one machine stay independent — and the data spec: each read returns
the last write to its subpage.  Any mismatch is a bug with a
replayable trace: the lowered schedule plus the seed reproduces it
deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.analysis.modelcheck import InvariantViolation
from repro.analysis.scenarios.model import (
    Prediction,
    ScenarioModel,
    Step,
    run_model,
)
from repro.coherence.litmus import ScheduleOutcome, run_schedule

__all__ = ["Divergence", "DifferentialResult", "lower_schedule", "differential_run"]


@dataclass(frozen=True)
class Divergence:
    """One channel where the simulator left the predicted class."""

    kind: str  # completion | observation | directory | cache | created | memory | quiescence
    message: str


@dataclass(frozen=True)
class DifferentialResult:
    """Outcome of executing one lowered scenario against its prediction."""

    schedule: tuple[Step, ...]  # as generated (pre-drain)
    lowered: tuple[Step, ...]  # with drain suffix
    prediction: Prediction
    outcome: Optional[ScheduleOutcome]
    divergences: tuple[Divergence, ...]

    @property
    def ok(self) -> bool:
        return not self.divergences


def lower_schedule(
    model: ScenarioModel, schedule: tuple[Step, ...]
) -> tuple[tuple[Step, ...], Prediction]:
    """Append the drain suffix and predict the full run.

    The drain is computed on the model's final state, so for a mutant
    model it reflects the *mutant's* idea of how to release locks —
    exactly what the oracle must test.
    """
    prediction = run_model(model, tuple(schedule))
    if not prediction.completed:
        return tuple(schedule), prediction
    state = model.initial()
    for step in schedule:
        state = model.apply(state, step)
    lowered = tuple(schedule) + model.drain_steps(state)
    return lowered, run_model(model, lowered)


def _concrete_steps(model: ScenarioModel, lowered: tuple[Step, ...]) -> list[tuple]:
    """Simulator form: write steps carry their unique value."""
    out: list[tuple] = []
    for index, (op, cell, sp) in enumerate(lowered):
        if op == "write":
            out.append((op, cell, sp, model.write_value(index)))
        else:
            out.append((op, cell, sp))
    return out


def differential_run(
    schedule: tuple[Step, ...],
    *,
    model: ScenarioModel,
    seed: int = 1,
) -> DifferentialResult:
    """Lower ``schedule``, run it on the simulator, diff every channel."""
    try:
        lowered, prediction = lower_schedule(model, tuple(schedule))
    except InvariantViolation as exc:
        # The model cannot produce a drain witness for its own final
        # state — a quiescence bug in the model itself.
        return DifferentialResult(
            schedule=tuple(schedule),
            lowered=tuple(schedule),
            prediction=run_model(model, tuple(schedule)),
            outcome=None,
            divergences=(Divergence("drain", str(exc)),),
        )
    if not prediction.completed:
        # The generating model refuses its own schedule — only broken
        # models do this; surface it as a (model-side) divergence.
        return DifferentialResult(
            schedule=tuple(schedule),
            lowered=lowered,
            prediction=prediction,
            outcome=None,
            divergences=(
                Divergence(
                    "completion",
                    f"model blocks its own schedule at step {prediction.blocked_at}",
                ),
            ),
        )
    outcome = run_schedule(
        _concrete_steps(model, lowered),
        n_cells=model.n_cells,
        n_vars=model.n_subpages,
        seed=seed,
    )
    divergences = tuple(_compare(prediction, outcome))
    return DifferentialResult(
        schedule=tuple(schedule),
        lowered=lowered,
        prediction=prediction,
        outcome=outcome,
        divergences=divergences,
    )


def _compare(prediction: Prediction, outcome: ScheduleOutcome) -> list[Divergence]:
    if not outcome.completed:
        return [
            Divergence(
                "completion",
                f"model predicts completion, simulator stuck: {outcome.diagnostics}",
            )
        ]
    out: list[Divergence] = []
    if prediction.observations != outcome.observations:
        out.append(
            Divergence(
                "observation",
                f"model observes {prediction.observations!r}, "
                f"simulator observes {outcome.observations!r}",
            )
        )
    if prediction.directory_states != outcome.directory_states:
        out.append(
            Divergence(
                "directory",
                f"model final states {prediction.directory_states!r}, "
                f"simulator directory {outcome.directory_states!r}",
            )
        )
    if outcome.cache_states != outcome.directory_states:
        out.append(
            Divergence(
                "cache",
                f"simulator local caches {outcome.cache_states!r} disagree "
                f"with its directory {outcome.directory_states!r}",
            )
        )
    if prediction.created != outcome.created:
        out.append(
            Divergence(
                "created",
                f"model created flags {prediction.created!r}, "
                f"simulator {outcome.created!r}",
            )
        )
    if prediction.memory != outcome.memory:
        out.append(
            Divergence(
                "memory",
                f"model memory {prediction.memory!r}, simulator {outcome.memory!r}",
            )
        )
    if not prediction.quiescent:
        out.append(
            Divergence(
                "quiescence",
                "lowered schedule does not end quiescent (drain suffix failed)",
            )
        )
    elif any("ATOMIC" in row for row in outcome.directory_states):
        out.append(
            Divergence(
                "quiescence",
                f"simulator still holds atomic state after drain: "
                f"{outcome.directory_states!r}",
            )
        )
    return out
