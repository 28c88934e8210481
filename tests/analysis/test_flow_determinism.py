"""KSR110 taint dataflow and KSR111 alias tracking on fixture programs."""

from __future__ import annotations

import textwrap

from repro.analysis.flow import run_flow
from repro.analysis.flow.determinism import determinism_findings
from repro.analysis.flow.program import load_program


def _flow(**sources: str):
    relabelled = {
        name.replace("__", "/") + ".py": textwrap.dedent(src)
        for name, src in sources.items()
    }
    report = run_flow(sources=relabelled)
    return report.findings


def _rules(findings) -> list[str]:
    return sorted(f.rule for f in findings)


class TestKSR110Sources:
    def test_wall_clock_to_schedule_is_flagged(self):
        findings = _flow(
            mod="""
            import time
            def setup(engine, cb):
                t = time.time()
                engine.schedule(t, cb)
            """
        )
        assert _rules(findings) == ["KSR110"]
        f = findings[0]
        assert "time.time" in f.message
        assert "schedule" in f.message
        assert f.path == "mod.py"
        assert f.line == 5

    def test_set_iteration_order_to_sink_is_flagged(self):
        findings = _flow(
            mod="""
            def keys(engine, cb):
                pending = {"a", "b", "c"}
                for name in pending:
                    engine.schedule(1.0, cb, name)
            """
        )
        assert _rules(findings) == ["KSR110"]
        assert "iteration order" in findings[0].message

    def test_unsorted_glob_to_point_key_is_flagged(self):
        findings = _flow(
            mod="""
            def keyed(func, root):
                names = [p.name for p in root.glob("*.json")]
                return point_key(func, dict(names=names))
            """
        )
        assert _rules(findings) == ["KSR110"]
        assert "glob" in findings[0].message

    def test_unseeded_rng_is_flagged_seeded_is_not(self):
        findings = _flow(
            mod="""
            import numpy as np
            def bad(engine, cb):
                engine.schedule(np.random.default_rng().random(), cb)
            def good(engine, cb, seed):
                engine.schedule(np.random.default_rng(seed).random(), cb)
            """
        )
        assert _rules(findings) == ["KSR110"]
        assert "default_rng" in findings[0].message

    def test_id_and_hash_are_flagged(self):
        findings = _flow(
            mod="""
            def bad(engine, cb, obj):
                engine.schedule_at(id(obj), cb)
                engine.schedule_at(hash(obj), cb)
            """
        )
        assert _rules(findings) == ["KSR110", "KSR110"]


class TestKSR110Sanitizers:
    def test_sorted_erases_order_taint(self):
        findings = _flow(
            mod="""
            def keys(engine, cb):
                pending = {"a", "b", "c"}
                for name in sorted(pending):
                    engine.schedule(1.0, cb, name)
            """
        )
        assert findings == []

    def test_len_erases_all_taint(self):
        findings = _flow(
            mod="""
            import time
            def count(engine, cb):
                stamps = [time.time()]
                engine.schedule(len(stamps), cb)
            """
        )
        assert findings == []

    def test_sorted_does_not_erase_wall_clock(self):
        findings = _flow(
            mod="""
            import time
            def worst(engine, cb):
                stamps = [time.time(), time.time()]
                engine.schedule(sorted(stamps)[0], cb)
            """
        )
        assert _rules(findings) == ["KSR110"]


class TestKSR110Interprocedural:
    def test_taint_through_helper_return(self):
        findings = _flow(
            mod="""
            import time
            def jitter():
                return time.time() % 1.0
            def setup(engine, cb):
                delay = jitter()
                engine.schedule_at(delay, cb)
            """
        )
        assert _rules(findings) == ["KSR110"]
        assert "time.time" in findings[0].message

    def test_taint_into_helper_that_sinks_a_param(self):
        findings = _flow(
            mod="""
            import time
            def arm(engine, delay, cb):
                engine.schedule(delay, cb)
            def setup(engine, cb):
                arm(engine, time.monotonic(), cb)
            """
        )
        assert _rules(findings) == ["KSR110"]
        # flagged at the tainted call site, naming the chained sink
        assert "arm" in findings[0].message and "schedule" in findings[0].message

    def test_clean_params_make_no_findings(self):
        findings = _flow(
            mod="""
            def arm(engine, delay, cb):
                engine.schedule(delay, cb)
            def setup(engine, cb, config):
                arm(engine, config.delay, cb)
            """
        )
        assert findings == []


class TestKSR111AliasMutation:
    def test_single_hop_alias_is_flagged(self):
        findings = _flow(
            machine__poker="""
            def poke(machine):
                cache = machine.cells[0].local_cache
                cache.set_state(3, "EXCLUSIVE")
            """
        )
        assert "KSR111" in _rules(findings)

    def test_multi_hop_alias_is_flagged(self):
        findings = _flow(
            machine__poker="""
            def poke(machine):
                a = machine.cells[0].local_cache
                b = a
                b.set_state(3, "EXCLUSIVE")
            """
        )
        assert "KSR111" in _rules(findings)
        assert findings[0].detail["alias"] == "b"

    def test_states_write_through_alias_is_flagged(self):
        findings = _flow(
            machine__poker="""
            def poke(machine):
                cache = machine.cells[0].local_cache
                cache._states[7] = None
            """
        )
        assert "KSR111" in _rules(findings)

    def test_protocol_whitelist_is_exempt(self):
        findings = _flow(
            coherence__protocol="""
            def helper(cell):
                cache = cell.local_cache
                cache.set_state(3, "SHARED")
            """
        )
        assert findings == []

    def test_nested_function_hit_is_reported_once(self):
        findings = _flow(
            machine__poker="""
            def outer(cell):
                def inner():
                    a = cell.local_cache
                    b = a
                    b.set_state(3, None)
                return inner
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("KSR111", 6)]

    def test_enclosing_alias_reaches_nested_function(self):
        findings = _flow(
            machine__poker="""
            def outer(cell):
                cache = cell.local_cache
                def inner():
                    cache.fill(3)
                return inner
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("KSR111", 5)]

    def test_zero_hop_spellings_are_flagged(self):
        findings = _flow(
            machine__cell="""
            cell.local_cache.fill(3)
            cell.local_cache._states[1] = 2
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("KSR111", 2), ("KSR111", 3)]

    def test_reads_through_alias_are_fine(self):
        findings = _flow(
            machine__probe="""
            def peek(machine):
                cache = machine.cells[0].local_cache
                return cache.state_of(3)
            """
        )
        assert findings == []


class TestRealTree:
    def test_real_tree_is_clean(self):
        findings, stats = determinism_findings(load_program())
        assert findings == []
        assert stats["functions_analyzed"] > 500

    def test_declared_sinks_are_collected(self):
        program = load_program()
        assert "Engine.schedule" in program.declared_sinks
        assert "point_key" in program.declared_sinks
        assert "SlottedRing.transact" in program.declared_sinks
