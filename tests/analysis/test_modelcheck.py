"""Exhaustive protocol model checking: clean models pass, broken ones
are caught."""

from __future__ import annotations

import pytest

from repro.analysis.modelcheck import (
    SUBPAGE,
    CoherenceModel,
    InvariantViolation,
    ModelChecker,
    check_protocol,
)
from repro.coherence.states import SubpageState
from repro.errors import ConfigError


class TestCleanModel:
    @pytest.mark.parametrize("n_cells", [2, 3])
    def test_exhaustive_exploration_is_clean(self, n_cells):
        result = check_protocol(n_cells)
        assert result.ok, result.summary()
        assert result.violations == []
        assert result.non_drainable == []
        # the exploration is exhaustive: a transition was attempted from
        # every reachable state (not a truncated walk)
        assert result.n_transitions > result.n_states

    def test_two_cell_state_space_is_exact(self):
        # The 2-cell abstraction is small enough to pin down: regressing
        # this number means the transition relation changed shape.
        result = check_protocol(2)
        assert result.n_states == 15

    def test_three_cells_reach_more_states_than_two(self):
        assert check_protocol(3).n_states > check_protocol(2).n_states

    def test_atomic_states_are_reachable_and_drain(self):
        # sanity: the exploration actually visits ATOMIC configurations
        checker = ModelChecker(2)
        model = checker.model
        state = model.initial()
        state = model.apply(state, ("gsp", 0))
        assert state[1][0][0] is SubpageState.ATOMIC
        assert not model.quiescent(state)
        state = model.apply(state, ("rsp", 0))
        assert model.quiescent(state)

    def test_rejects_degenerate_cell_count(self):
        with pytest.raises(ConfigError):
            CoherenceModel(1)


class TestTransitionSemantics:
    def test_write_invalidates_other_copies(self):
        model = CoherenceModel(2)
        s = model.initial()
        s = model.apply(s, ("read", 0))     # cold: cell 0 EXCLUSIVE
        s = model.apply(s, ("read", 1))     # both SHARED now
        assert [c[0] for c in s[1]] == [SubpageState.SHARED, SubpageState.SHARED]
        s = model.apply(s, ("write", 1))
        assert s[1][0][0] is SubpageState.INVALID
        assert s[1][1][0] is SubpageState.EXCLUSIVE
        assert s[1][0][1] is False          # loser's data is stale

    def test_read_snarfs_placeholders_fresh(self):
        model = CoherenceModel(3)
        s = model.initial()
        s = model.apply(s, ("read", 0))
        s = model.apply(s, ("read", 1))
        s = model.apply(s, ("write", 2))    # 0 and 1 become placeholders
        s = model.apply(s, ("read", 0))     # 0 refetches; 1 snarfs
        states = [c[0] for c in s[1]]
        assert states == [SubpageState.SHARED] * 3
        assert all(fresh for _, fresh in s[1])

    def test_eviction_of_atomic_copy_is_never_enabled(self):
        model = CoherenceModel(2)
        s = model.apply(model.initial(), ("gsp", 0))
        assert ("evict", 0) not in model.enabled(s)
        with pytest.raises(InvariantViolation):
            model.apply(s, ("evict", 0))

    def test_blocked_cells_have_no_enabled_accesses(self):
        model = CoherenceModel(2)
        s = model.apply(model.initial(), ("gsp", 0))
        enabled = model.enabled(s)
        assert all(c != 1 for _, c in enabled)


class _SkipsInvalidation(CoherenceModel):
    """Broken: a write leaves other valid copies untouched."""

    def _invalidate_others(self, d, cells, keep_cell):
        pass


class _SnarfsPastOwner(CoherenceModel):
    """Broken: place-holders revalidate even while an exclusive owner
    exists (the stale-packet hazard the real protocol guards against)."""

    def _snarf_placeholders(self, d, cells):
        entry = d.entry(SUBPAGE)
        for holder in sorted(entry.placeholders):
            cells.set_state(holder, SubpageState.SHARED, fresh=False)
        entry.sharer_mask |= entry.placeholder_mask
        entry.placeholder_mask = 0


class _SingleStepAtomicFill(CoherenceModel):
    """Broken: get_subpage installs ATOMIC directly from SHARED, a
    transition the protocol's legal-transition relation forbids."""

    def _do_gsp(self, d, cells, c, created):
        entry = d.entry(SUBPAGE)
        if entry.owner == c:
            d.set_atomic(SUBPAGE, c, True)
            cells.set_state(c, SubpageState.ATOMIC, fresh=cells.fresh[c])
            return created
        self._invalidate_others(d, cells, c)
        cells.set_state(c, SubpageState.ATOMIC, fresh=True)
        d.record_fill_exclusive(SUBPAGE, c, atomic=True)
        return True


class TestBrokenModelsAreCaught:
    @pytest.mark.parametrize(
        "broken", [_SkipsInvalidation, _SnarfsPastOwner, _SingleStepAtomicFill]
    )
    def test_each_broken_primitive_yields_violations(self, broken):
        result = ModelChecker(2, model=broken(2)).run()
        assert not result.ok
        assert result.violations, result.summary()
        # every violation carries a replayable counterexample trace
        assert all(v.message for v in result.violations)

    def test_skipped_invalidation_names_the_conflict(self):
        result = ModelChecker(2, model=_SkipsInvalidation(2)).run()
        text = "\n".join(str(v) for v in result.violations)
        assert "sharers" in text or "stale" in text


class _NeverReleases(CoherenceModel):
    """Broken: release_subpage is disabled, so ATOMIC never drains."""

    def enabled(self, state):
        return [a for a in super().enabled(state) if a[0] != "rsp"]


class TestDrainPath:
    def test_quiescent_state_needs_no_drain(self):
        checker = ModelChecker(2)
        assert checker.drain_path(checker.model.initial()) == ()

    def test_atomic_holder_drains_by_releasing(self):
        checker = ModelChecker(2)
        state = checker.model.apply(checker.model.initial(), ("gsp", 0))
        assert checker.drain_path(state) == (("rsp", 0),)

    def test_witness_actually_reaches_quiescence(self):
        checker = ModelChecker(3)
        model = checker.model
        state = model.initial()
        for action in (("read", 0), ("read", 1), ("gsp", 2)):
            state = model.apply(state, action)
        path = checker.drain_path(state)
        assert path
        for action in path:
            state = model.apply(state, action)
        assert model.quiescent(state)

    def test_wedged_state_raises_with_the_wedge_named(self):
        checker = ModelChecker(2, model=_NeverReleases(2))
        state = checker.model.apply(checker.model.initial(), ("gsp", 0))
        with pytest.raises(InvariantViolation, match="cannot drain"):
            checker.drain_path(state)

    def test_non_drainable_states_surface_as_violations_with_traces(self):
        result = ModelChecker(2, model=_NeverReleases(2)).run()
        assert result.non_drainable
        stuck = [v for v in result.violations if "no drain path" in v.message]
        assert len(stuck) == len(result.non_drainable)
        # the witness context is the path *into* the wedged state
        assert all(v.trace for v in stuck)
        assert all(v.action is None for v in stuck)
