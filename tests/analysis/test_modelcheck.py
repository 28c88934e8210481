"""Exhaustive protocol model checking: the real protocol passes,
mutated ones are caught, and the abstraction is a function."""

from __future__ import annotations

import pytest

from repro.analysis.modelcheck import (
    ACTIONS,
    CoherenceModel,
    InvariantViolation,
    ModelChecker,
    check_protocol,
)
from repro.coherence.states import SubpageState
from repro.errors import ConfigError, ProtocolError
from tests.analysis.test_protocol_mutation import LEDGER, mutate_protocol

_MUTANTS = {m.id: m for m in LEDGER}


def _mutate(monkeypatch, mutant_id: str) -> None:
    m = _MUTANTS[mutant_id]
    mutate_protocol(monkeypatch, m.method, m.old, m.new)


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
        assert (result.n_states, result.n_transitions) == (15, 76)

    @pytest.mark.parametrize("n_cells,n_states,n_transitions", [(3, 39, 288), (4, 95, 912)])
    def test_state_and_transition_counts_are_pinned(self, n_cells, n_states, n_transitions):
        result = check_protocol(n_cells)
        assert (result.n_states, result.n_transitions) == (n_states, n_transitions)

    def test_three_cells_reach_more_states_than_two(self):
        assert check_protocol(3).n_states > check_protocol(2).n_states

    def test_every_action_kind_is_enabled_somewhere(self):
        model = CoherenceModel(2)
        seen, frontier, kinds = set(), [model.initial()], set()
        while frontier:
            state = frontier.pop()
            if state in seen:
                continue
            seen.add(state)
            for action in model.enabled(state):
                kinds.add(action[0])
                frontier.append(model.apply(state, action))
        assert kinds == set(ACTIONS)

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
        with pytest.raises(ProtocolError, match="evicted atomic"):
            model.apply(s, ("evict", 0))

    def test_blocked_cells_have_no_enabled_accesses(self):
        model = CoherenceModel(2)
        s = model.apply(model.initial(), ("gsp", 0))
        enabled = model.enabled(s)
        assert all(c != 1 for _, c in enabled)


class TestBrokenModelsAreCaught:
    @pytest.mark.parametrize(
        "broken",
        ["skip-invalidation", "never-releases", "drop-release-set_atomic",
         "widen-exclusive-to-atomic"],
    )
    def test_each_broken_primitive_yields_violations(self, broken, monkeypatch):
        _mutate(monkeypatch, broken)
        result = ModelChecker(2).run()
        assert not result.ok
        assert result.violations, result.summary()
        # every violation carries a replayable counterexample trace
        assert all(v.message for v in result.violations)

    def test_skipped_invalidation_names_the_conflict(self, monkeypatch):
        _mutate(monkeypatch, "skip-invalidation")
        result = ModelChecker(2).run()
        text = "\n".join(str(v) for v in result.violations)
        assert "sharers" in text or "stale" in text


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

    def test_wedged_state_raises_with_the_wedge_named(self, monkeypatch):
        _mutate(monkeypatch, "rsp-is-a-noop")
        checker = ModelChecker(2)
        state = checker.model.apply(checker.model.initial(), ("gsp", 0))
        with pytest.raises(InvariantViolation, match="cannot drain"):
            checker.drain_path(state)

    def test_non_drainable_states_surface_as_violations_with_traces(self, monkeypatch):
        _mutate(monkeypatch, "rsp-is-a-noop")
        result = ModelChecker(2).run()
        assert result.non_drainable
        stuck = [v for v in result.violations if "no drain path" in v.message]
        assert len(stuck) == len(result.non_drainable)
        # the witness context is the path *into* the wedged state
        assert all(v.trace for v in stuck)
        assert all(v.action is None for v in stuck)


class TestAbstractionIsAFunction:
    """Successors are computed from one witness path per state; that is
    sound only if every path into a state gives each action the same
    abstract successor.  Replay every schedule to a bound and check."""

    @pytest.mark.parametrize("n_cells,depth", [(2, 5), (3, 4)])
    def test_every_path_gives_each_action_one_successor(self, n_cells, depth):
        model = CoherenceModel(n_cells)
        schedules = [((), model.initial())]
        for _ in range(depth):
            schedules = [
                (path + (action,), model.apply(state, action))
                for path, state in schedules
                for action in model.enabled(state)
            ]
        first: dict = {}
        for path, _state in schedules:
            pre = model.initial()
            for i, post in enumerate(model.walk(path)):
                key = (pre, path[i])
                seen, witness = first.setdefault(key, (post, path[: i + 1]))
                assert seen == post, (
                    f"{path[i]} from {pre} reaches {seen} via {witness} "
                    f"but {post} via {path[: i + 1]}"
                )
                pre = post
        for (pre, action), (post, _witness) in first.items():
            assert model.apply(pre, action) == post
