"""Data-spec mutation test for the scenario differential oracle.

The per-subpage relation is the real protocol's, so protocol mutants
live in the ledger (``tests/analysis/test_protocol_mutation.py``).
What the oracle adds on top is the data spec — a read returns the last
write to its subpage — and the product over subpages.  The mutant here
damages the data channel of :class:`ScenarioModel` in a way that stays
internally consistent, and the oracle must catch it: at least one
enumerated class representative, executed on the real simulator, lands
outside the mutant's predicted behaviour class.
"""

import pytest

from repro.analysis.scenarios import (
    ScenarioModel,
    differential_run,
    enumerate_classes,
)

N_CELLS = 3
DEPTH = 3


class _StaleRead(ScenarioModel):
    """Data mutation: reads observe the previous memory value."""

    def read_value(self, memory_value):
        return memory_value - 1 if memory_value else 0


def _caught(model):
    """Divergent (class, result) pairs over the bounded enumeration."""
    enum = enumerate_classes(model, DEPTH)
    out = []
    for cls in enum.classes:
        result = differential_run(cls.schedule, model=model)
        if not result.ok:
            out.append((cls, result))
    return out


MUTANTS = [
    pytest.param(_StaleRead, {"observation"}, id="reads-observe-stale-value"),
]


class TestMutantsAreCaught:
    def test_stock_model_is_clean_on_this_grid(self):
        assert _caught(ScenarioModel(N_CELLS, 1)) == []

    @pytest.mark.parametrize("mutant,expected_kinds", MUTANTS)
    def test_mutant_diverges_on_at_least_one_scenario(self, mutant, expected_kinds):
        caught = _caught(mutant(N_CELLS, 1))
        assert caught, f"{mutant.__name__} survived every generated scenario"
        kinds = {d.kind for _cls, r in caught for d in r.divergences}
        assert kinds & expected_kinds, (
            f"{mutant.__name__} caught via {kinds}, expected one of {expected_kinds}"
        )

    @pytest.mark.parametrize("mutant,expected_kinds", MUTANTS)
    def test_divergence_carries_a_replayable_trace(self, mutant, expected_kinds):
        cls, result = _caught(mutant(N_CELLS, 1))[0]
        # the lowered schedule is the deterministic reproducer
        assert result.schedule == cls.schedule
        assert len(result.lowered) >= len(result.schedule)
        assert all(d.message for d in result.divergences)
