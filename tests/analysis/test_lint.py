"""Each forbidden pattern is flagged; the real tree is clean.

The rules run as the one analyzer does: every case is a one-module
program through :func:`repro.analysis.flow.run_flow`.  KSR101, the
single-hop state-mutation rule, is retired into KSR111, so its cases
expect KSR111.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.flow import Finding, findings_to_text, run_flow
from repro.analysis.flow.program import load_program
from repro.analysis.flow.rules import lint_findings


def _lint(source: str, relpath: str = "sim/engine.py") -> list[Finding]:
    sources = {relpath: textwrap.dedent(source)}
    return run_flow(sources=sources).findings


def _codes(violations: list[Finding]) -> list[str]:
    return [v.rule for v in violations]


class TestKSR100WallClockImports:
    @pytest.mark.parametrize("module", ["time", "random", "datetime"])
    def test_plain_import_is_flagged(self, module):
        flags = _lint(f"import {module}\n")
        assert _codes(flags) == ["KSR100"]
        assert module in flags[0].message

    def test_from_import_is_flagged(self):
        assert _codes(_lint("from time import monotonic\n")) == ["KSR100"]

    def test_submodule_import_is_flagged(self):
        assert _codes(_lint("import datetime.timezone\n")) == ["KSR100"]

    def test_import_inside_function_is_flagged(self):
        flags = _lint(
            """
            def jitter():
                import random
                return random.random()
            """
        )
        assert _codes(flags) == ["KSR100"]

    @pytest.mark.parametrize(
        "relpath", ["util/stats.py", "experiments/cli.py", "analysis/lint.py"]
    )
    def test_non_sim_packages_may_import_time(self, relpath):
        assert _lint("import time\n", relpath) == []

    def test_lookalike_modules_are_not_flagged(self):
        assert _lint("import timeit\nfrom randomish import x\n") == []

    def test_relative_imports_are_not_flagged(self):
        assert _lint("from .time import Clock\n", "sim/engine.py") == []


class TestKSR101StateMutation:
    def test_mutator_call_on_local_cache_is_flagged(self):
        flags = _lint(
            "cell.local_cache.set_state(sp, SubpageState.EXCLUSIVE)\n",
            "machine/cell.py",
        )
        assert _codes(flags) == ["KSR111"]
        assert "protocol" in flags[0].message

    @pytest.mark.parametrize(
        "method", ["set_state", "fill", "invalidate", "snarf", "drop"]
    )
    def test_every_mutator_method_is_covered(self, method):
        flags = _lint(f"self.local_cache.{method}(sp)\n", "ring/hierarchy.py")
        assert _codes(flags) == ["KSR111"]

    def test_states_table_store_is_flagged(self):
        flags = _lint(
            "cache._states[sp] = SubpageState.INVALID\n", "machine/cell.py"
        )
        assert _codes(flags) == ["KSR111"]

    def test_states_table_augmented_store_is_flagged(self):
        flags = _lint("cache._states[sp] |= bit\n", "machine/cell.py")
        assert _codes(flags) == ["KSR111"]

    @pytest.mark.parametrize(
        "relpath",
        ["coherence/protocol.py", "coherence/ops.py", "memory/local_cache.py"],
    )
    def test_protocol_modules_may_mutate(self, relpath):
        src = "self.local_cache.set_state(sp, s)\ncache._states[sp] = s\n"
        assert _lint(src, relpath) == []

    def test_mutator_names_on_other_receivers_pass(self):
        # "drop"/"fill" are common verbs; only cache receivers count
        assert _lint("queue.drop(item)\nbuffer.fill(0)\n", "sim/engine.py") == []


class TestKSR102TimeEquality:
    def test_eq_on_now_attribute_is_flagged(self):
        flags = _lint("if engine.now == deadline:\n    pass\n")
        assert _codes(flags) == ["KSR102"]
        assert "tolerance" in flags[0].message

    def test_neq_is_flagged_too(self):
        assert _codes(_lint("ok = msg.completed_at != t\n")) == ["KSR102"]

    def test_bare_now_name_is_flagged(self):
        assert _codes(_lint("if now == 0.0:\n    pass\n")) == ["KSR102"]

    def test_chained_comparison_hits_each_eq(self):
        flags = _lint("assert a.injected_at == b.injected_at == t\n")
        assert _codes(flags) == ["KSR102", "KSR102"]

    def test_ordering_comparisons_pass(self):
        src = "if engine.now >= deadline or msg.completes_at < t:\n    pass\n"
        assert _lint(src) == []

    def test_non_time_names_pass(self):
        assert _lint("if a.count == b.count:\n    pass\n") == []

    def test_non_sim_packages_are_exempt(self):
        assert _lint("if engine.now == 0.0:\n    pass\n", "util/stats.py") == []


class TestKSR103RngConstruction:
    def test_random_random_is_flagged(self):
        flags = _lint("rng = random.Random(42)\n", "experiments/foo.py")
        assert _codes(flags) == ["KSR103"]
        assert "random.Random" in flags[0].message
        assert "repro.util.rng" in flags[0].message

    def test_system_random_is_flagged(self):
        flags = _lint("rng = random.SystemRandom()\n", "experiments/foo.py")
        assert _codes(flags) == ["KSR103"]

    def test_numpy_legacy_randomstate_is_flagged(self):
        flags = _lint("rng = np.random.RandomState(7)\n", "kernels/foo.py")
        assert _codes(flags) == ["KSR103"]
        assert "np.random.RandomState" in flags[0].message

    def test_from_import_alias_is_flagged(self):
        flags = _lint(
            """
            from random import Random as Rng
            rng = Rng(42)
            """,
            "experiments/foo.py",
        )
        assert _codes(flags) == ["KSR103"]
        assert "Rng" in flags[0].message

    def test_default_rng_is_not_flagged(self):
        # The seeded Generator API is the sanctioned numpy entry point.
        assert _lint("rng = np.random.default_rng(7)\n", "kernels/foo.py") == []

    def test_unrelated_constructors_are_not_flagged(self):
        assert _lint("x = Random(1)\ny = state.RandomState\n", "util/stats.py") == []

    def test_rng_module_itself_is_exempt(self):
        assert _lint("rng = np.random.RandomState(7)\n", "util/rng.py") == []

    def test_applies_outside_sim_packages_too(self):
        # KSR100 already bans `random` inside sim packages; KSR103 must
        # reach code KSR100 does not (experiments, kernels, analysis).
        src = "import random\nrng = random.Random(1)\n"
        flags = _lint(src, "analysis/foo.py")
        assert _codes(flags) == ["KSR103"]


class TestKSR114GrantHeapMutation:
    def test_heapreplace_on_free_is_flagged(self):
        violations = _lint(
            """
            from heapq import heapreplace

            class Shortcut:
                def grab(self, item):
                    heapreplace(self._free, item)
            """,
            "ring/patch.py",
        )
        assert _codes(violations) == ["KSR114"]

    def test_module_qualified_heapreplace_is_flagged(self):
        violations = _lint(
            """
            import heapq

            def grab(ring, item):
                heapq.heapreplace(ring._free, item)
            """,
            "ring/patch.py",
        )
        assert _codes(violations) == ["KSR114"]

    def test_subscripted_heap_is_flagged(self):
        violations = _lint(
            """
            from heapq import heapreplace

            def grab(self, subring, item):
                heapreplace(self._free[subring], item)
            """,
            "ring/patch.py",
        )
        assert _codes(violations) == ["KSR114"]

    def test_alias_evasion_is_flagged(self):
        violations = _lint(
            """
            from heapq import heapreplace

            def grab(ring, subring, item):
                heap = ring._free[subring]
                heapreplace(heap, item)
            """,
            "ring/patch.py",
        )
        assert _codes(violations) == ["KSR114"]

    def test_slotted_ring_claim_is_allowed(self):
        violations = _lint(
            """
            from heapq import heapreplace

            class SlottedRing:
                def _claim(self, item):
                    heapreplace(self._free, item)
            """,
            "ring/slotted_ring.py",
        )
        assert violations == []

    def test_batch_advancer_is_flagged(self):
        """The retry advancer claims slots through
        ``SlottedRing._claim``; a grant-heap write of its own is a copy."""
        violations = _lint(
            """
            from heapq import heapreplace

            class BatchAdvancer:
                def _anchor_fired(self, ring, item):
                    heapreplace(ring._free, item)
            """,
            "ring/batch.py",
        )
        assert _codes(violations) == ["KSR114"]

    def test_other_heaps_pass(self):
        violations = _lint(
            """
            from heapq import heapreplace

            def rotate(queue, item):
                heapreplace(queue, item)
            """,
            "ring/patch.py",
        )
        assert violations == []

    def test_claim_outside_slotted_ring_is_flagged(self):
        violations = _lint(
            """
            from heapq import heapreplace

            class Imposter:
                def _claim(self, item):
                    heapreplace(self._free, item)
            """,
            "ring/patch.py",
        )
        assert _codes(violations) == ["KSR114"]


class TestTreeAndReport:
    def test_real_tree_is_clean(self):
        assert lint_findings(load_program()) == []

    def test_sweep_runner_module_is_clean(self):
        # regression: the process-pool sweep runner lives outside the
        # KSR100-linted sim packages, so its os/pool machinery must not
        # trip the linter where it actually lives...
        import repro.experiments.sweep as sweep
        from pathlib import Path

        source = Path(sweep.__file__).read_text(encoding="utf-8")
        program = load_program(sources={"experiments/sweep.py": source})
        assert lint_findings(program) == []

    def test_wallclock_seam_import_passes_in_sim(self):
        # ...and the sanctioned metering seam is importable from sim
        # packages, while a direct `import time` there stays forbidden.
        assert _lint("from repro.util.wallclock import perf_counter\n") == []
        assert _codes(_lint("import time\n")) == ["KSR100"]

    def test_render_report_formats_location(self):
        flags = _lint("import time\n", "sim/engine.py")
        report = findings_to_text(flags)
        assert report.startswith("sim/engine.py:1:0: KSR100")

    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            load_program(sources={"sim/engine.py": "def broken(:\n"})


class TestKSR101AliasRegression:
    """The documented KSR101 evasion: aliasing the cache into a local.

    KSR111 follows the alias over any number of hops, so neither the
    single-assignment nor the multi-hop spelling evades it.
    """

    SINGLE_HOP = """
    def poke(cell):
        cache = cell.local_cache
        cache.set_state(3, None)
    """

    MULTI_HOP = """
    def poke(cell):
        a = cell.local_cache
        b = a
        b.set_state(3, None)
    """

    def test_single_assignment_alias_no_longer_evades_lint(self):
        flags = _lint(self.SINGLE_HOP, relpath="machine/cell.py")
        assert _codes(flags) == ["KSR111"]
        assert "cache.set_state" in flags[0].message

    def test_alias_states_write_is_flagged(self):
        flags = _lint(
            """
            def poke(cell):
                cache = cell.local_cache
                cache._states[7] = None
            """,
            relpath="machine/cell.py",
        )
        assert _codes(flags) == ["KSR111"]

    def test_alias_in_whitelisted_module_is_fine(self):
        assert _lint(self.SINGLE_HOP, relpath="coherence/protocol.py") == []

    def test_alias_reads_are_fine(self):
        flags = _lint(
            """
            def peek(cell):
                cache = cell.local_cache
                return cache.state_of(3)
            """,
            relpath="machine/cell.py",
        )
        assert flags == []

    def test_multi_hop_alias_is_flagged(self):
        flags = _lint(self.MULTI_HOP, relpath="machine/cell.py")
        assert _codes(flags) == ["KSR111"]
        assert "b.set_state" in flags[0].message

