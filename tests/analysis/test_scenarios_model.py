"""Unit tests for the scenario product model, canonicalization and
the symmetry-reduced enumerator."""

import pytest

from repro.analysis.modelcheck import CoherenceModel
from repro.analysis.scenarios import (
    MODEL_VERSION,
    ScenarioModel,
    behaviour_key,
    canonicalize,
    enumerate_classes,
    is_canonical,
    run_model,
)
from repro.errors import ConfigError


class TestScenarioModel:
    def test_model_version_is_declared(self):
        assert isinstance(MODEL_VERSION, str) and MODEL_VERSION

    def test_initial_is_pristine_per_subpage(self):
        m = ScenarioModel(2, 2)
        state = m.initial()
        assert len(state) == 2
        assert all(sub == CoherenceModel(2).initial() for sub in state)

    def test_enabled_is_deterministic_and_excludes_evict(self):
        m = ScenarioModel(3, 2)
        steps = m.enabled(m.initial())
        assert steps == sorted(steps, key=lambda s: (s[2], s[1], s[0] != "read"))
        assert all(op != "evict" for op, _c, _sp in steps)
        # cold state: every cell can read, write or gsp either subpage
        assert ("read", 0, 0) in steps and ("gsp", 2, 1) in steps

    def test_apply_touches_only_the_stepped_subpage(self):
        m = ScenarioModel(2, 2)
        state = m.apply(m.initial(), ("write", 0, 1))
        assert state[0] == CoherenceModel(2).initial()
        assert state[1] != CoherenceModel(2).initial()

    def test_subpage_bounds_checked(self):
        m = ScenarioModel(2, 1)
        with pytest.raises(ConfigError):
            m.apply(m.initial(), ("write", 0, 1))

    def test_drain_steps_release_every_atomic_subpage(self):
        m = ScenarioModel(2, 2)
        state = m.apply(m.initial(), ("gsp", 0, 0))
        state = m.apply(state, ("gsp", 1, 1))
        drain = m.drain_steps(state)
        assert set(drain) == {("rsp", 0, 0), ("rsp", 1, 1)}
        for step in drain:
            state = m.apply(state, step)
        assert m.quiescent(state)

    def test_drain_steps_empty_when_quiescent(self):
        m = ScenarioModel(2, 1)
        assert m.drain_steps(m.initial()) == ()


class TestRunModel:
    def test_write_then_read_observes_the_write_value(self):
        m = ScenarioModel(2, 1)
        pred = run_model(m, (("write", 0, 0), ("read", 1, 0)))
        assert pred.completed
        # the write at index 0 deposits value 1; the read at index 1 sees it
        assert pred.observations == ((1, 1),)
        assert pred.memory == (1,)
        assert pred.created == (True,)

    def test_reads_of_untouched_subpage_observe_zero(self):
        m = ScenarioModel(2, 2)
        pred = run_model(m, (("write", 0, 0), ("read", 1, 1)))
        assert pred.observations == ((1, 0),)
        assert pred.memory == (1, 0)

    def test_non_enabled_step_blocks_the_prediction(self):
        m = ScenarioModel(2, 1)
        pred = run_model(m, (("rsp", 0, 0),))
        assert not pred.completed
        assert pred.blocked_at == 0

    def test_blocked_behind_atomic_holder(self):
        m = ScenarioModel(2, 1)
        pred = run_model(m, (("gsp", 0, 0), ("write", 1, 0)))
        assert not pred.completed
        assert pred.blocked_at == 1

    def test_final_state_names_match_the_protocol_vocabulary(self):
        m = ScenarioModel(2, 1)
        pred = run_model(m, (("write", 0, 0), ("read", 1, 0)))
        assert pred.directory_states == (("SHARED", "SHARED"),)
        assert pred.quiescent


class TestCanonicalization:
    def test_first_appearance_relabelling(self):
        canon, cmap, smap = canonicalize((("write", 2, 1), ("read", 0, 1), ("gsp", 2, 0)))
        assert canon == (("write", 0, 0), ("read", 1, 0), ("gsp", 0, 1))
        assert cmap == {2: 0, 0: 1}
        assert smap == {1: 0, 0: 1}

    def test_is_canonical(self):
        assert is_canonical((("write", 0, 0), ("read", 1, 0)))
        assert not is_canonical((("write", 1, 0),))
        assert not is_canonical((("write", 0, 1),))

    def test_symmetric_schedules_share_a_behaviour_key(self):
        m = ScenarioModel(3, 2)
        original = (("write", 0, 0), ("read", 1, 0), ("write", 2, 1))
        permuted = (("write", 2, 1), ("read", 0, 1), ("write", 1, 0))
        assert behaviour_key(m, original) == behaviour_key(m, permuted)

    def test_different_behaviours_get_different_keys(self):
        m = ScenarioModel(2, 1)
        assert behaviour_key(m, (("write", 0, 0),)) != behaviour_key(m, (("read", 0, 0),))

    def test_behaviour_key_rejects_non_model_schedules(self):
        m = ScenarioModel(2, 1)
        with pytest.raises(ConfigError):
            behaviour_key(m, (("rsp", 0, 0),))


class TestEnumeration:
    def test_representatives_are_canonical_and_shortest_first(self):
        enum = enumerate_classes(ScenarioModel(2, 1), 3)
        assert all(is_canonical(c.schedule) for c in enum.classes)
        # the single-step classes exist and no representative is longer
        # than another member of its class could be shorter than
        lengths = [len(c.schedule) for c in enum.classes]
        assert min(lengths) == 1 and max(lengths) <= 3

    def test_class_partition_counts_every_schedule(self):
        enum = enumerate_classes(ScenarioModel(2, 1), 3)
        assert sum(c.n_members for c in enum.classes) == enum.n_schedules

    def test_depth_monotone(self):
        shallow = enumerate_classes(ScenarioModel(2, 1), 2)
        deep = enumerate_classes(ScenarioModel(2, 1), 3)
        assert len(deep.classes) > len(shallow.classes)
        assert {c.key for c in shallow.classes} <= {c.key for c in deep.classes}

    def test_digest_is_order_independent_and_pinned(self):
        a = enumerate_classes(ScenarioModel(2, 1), 3)
        b = enumerate_classes(ScenarioModel(2, 1), 3)
        assert a.digest() == b.digest()
        assert len(a.classes) == 43  # regression pin: 2 cells, 1 subpage, depth 3

    def test_more_subpages_multiply_behaviours(self):
        one = enumerate_classes(ScenarioModel(2, 1), 3)
        two = enumerate_classes(ScenarioModel(2, 2), 3)
        assert len(two.classes) > len(one.classes)
