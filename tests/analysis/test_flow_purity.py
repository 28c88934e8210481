"""KSR112 cache-key purity on fixture programs and the real tree."""

from __future__ import annotations

import textwrap

from repro.analysis.flow import purity_findings
from repro.analysis.flow.program import load_program


def _purity(**sources: str):
    relabelled = {
        name.replace("__", "/") + ".py": textwrap.dedent(src)
        for name, src in sources.items()
    }
    return purity_findings(load_program(sources=relabelled))


class TestUnstableTypes:
    def test_plain_class_kwarg_is_flagged(self):
        findings, _ = _purity(
            exp="""
            class Opaque:
                def __init__(self, x):
                    self.x = x
            def sweep(runner, func):
                cfg = Opaque(3)
                return runner.run(func, n_procs=4, cfg=cfg)
            """
        )
        assert [f.rule for f in findings] == ["KSR112"]
        assert findings[0].detail == {"kwarg": "cfg", "type": "Opaque"}

    def test_direct_constructor_kwarg_is_flagged(self):
        findings, _ = _purity(
            exp="""
            class Opaque:
                pass
            def sweep(runner, func):
                return runner.run(func, cfg=Opaque())
            """
        )
        assert [f.rule for f in findings] == ["KSR112"]

    def test_helper_return_annotation_is_chased(self):
        findings, _ = _purity(
            exp="""
            class Opaque:
                pass
            def _mk(r) -> "Opaque":
                return Opaque()
            def sweep(runner, func, rates):
                calls = [dict(n_procs=p, plan=_mk(r)) for p in (1, 2) for r in rates]
                return runner.map(func, calls)
            """
        )
        assert [f.rule for f in findings] == ["KSR112"]
        assert findings[0].detail["kwarg"] == "plan"

    def test_helper_built_calls_list_is_chased(self):
        findings, stats = _purity(
            exp="""
            class Opaque:
                pass
            def build(rates):
                calls = [dict(rate=r, plan=Opaque()) for r in rates]
                return calls
            def sweep(runner, func, rates):
                calls = build(rates)
                return runner.map(func, calls)
            """
        )
        assert [f.rule for f in findings] == ["KSR112"]
        assert findings[0].detail["kwarg"] == "plan"
        assert stats["kwargs_checked"] == 2

    def test_adornment_loop_values_are_checked(self):
        findings, _ = _purity(
            exp="""
            class Opaque:
                pass
            def sweep(runner, func, names):
                calls = [dict(name=n) for n in names]
                obs = Opaque()
                for call in calls:
                    call["obs"] = obs
                return runner.map(func, calls)
            """
        )
        assert [f.rule for f in findings] == ["KSR112"]
        assert findings[0].detail["kwarg"] == "obs"


class TestStableTypes:
    def test_dataclass_kwarg_is_clean(self):
        findings, _ = _purity(
            exp="""
            from dataclasses import dataclass
            @dataclass(frozen=True)
            class Spec:
                x: int
            def sweep(runner, func):
                return runner.run(func, cfg=Spec(3))
            """
        )
        assert findings == []

    def test_cache_token_class_is_clean(self):
        findings, _ = _purity(
            exp="""
            class Plan:
                @property
                def cache_token(self):
                    return ("plan", 1)
            def sweep(runner, func):
                return runner.run(func, plan=Plan())
            """
        )
        assert findings == []

    def test_annotated_param_class_is_classified(self):
        findings, _ = _purity(
            exp="""
            class Opaque:
                pass
            def sweep(runner, func, cfg: "Opaque"):
                return runner.run(func, cfg=cfg)
            """
        )
        assert [f.rule for f in findings] == ["KSR112"]

    def test_constants_and_builtins_are_clean(self):
        findings, stats = _purity(
            exp="""
            def sweep(runner, func, seed: int, frac: float):
                calls = [dict(n_procs=p, seed=seed, frac=frac, tag="x") for p in (1, 2)]
                return runner.map(func, calls)
            """
        )
        assert findings == []
        assert stats["kwargs_checked"] == 4

    def test_unresolved_values_are_counted_not_flagged(self):
        findings, stats = _purity(
            exp="""
            def sweep(runner, func, mystery):
                return runner.run(func, thing=mystery.payload)
            """
        )
        assert findings == []
        assert stats["kwargs_unresolved"] == 1


class TestReceiverSelection:
    def test_non_runner_run_calls_are_ignored(self):
        findings, stats = _purity(
            exp="""
            class Opaque:
                pass
            def bench(kernel):
                return kernel.run(4, cfg=Opaque())
            """
        )
        assert findings == []
        assert stats["call_sites"] == 0

    def test_local_sweeprunner_binding_is_recognized(self):
        findings, _ = _purity(
            exp="""
            class Opaque:
                pass
            def sweep(func, cache):
                r = SweepRunner(cache)
                return r.run(func, cfg=Opaque())
            """
        )
        assert [f.rule for f in findings] == ["KSR112"]


class TestRealTree:
    def test_real_tree_is_clean_and_covers_sites(self):
        findings, stats = purity_findings(load_program())
        assert findings == []
        # the experiments + service layers keep feeding the sweep cache
        assert stats["call_sites"] >= 20
        assert stats["kwargs_checked"] >= 60
