"""Mutation testing of the KSR113 conformance extractor.

Each test perturbs a copy of ``coherence/protocol.py`` source the way
a real regression would — dropping a transition, flipping a guard,
widening a state set — and asserts the conformance diff flags the
mutant with a counterexample naming the offending transition.  This is
what makes the extractor trustworthy: it fails when it should, not
just passes when it should.
"""

from __future__ import annotations

import pytest

from repro.analysis.flow.conformance import conformance_findings
from repro.analysis.flow.program import repro_root


def _protocol_source() -> str:
    return (repro_root() / "coherence" / "protocol.py").read_text(encoding="utf-8")


def _mutate(old: str, new: str) -> str:
    source = _protocol_source()
    assert old in source, f"mutation anchor vanished from protocol.py: {old!r}"
    mutated = source.replace(old, new)
    assert mutated != source
    return mutated


#: (name, expected op in the counterexample, anchor, replacement)
MUTANTS = [
    (
        "drop-release-set_atomic",
        "rsp",
        "self.directory.set_atomic(subpage_id, cell_id, False)",
        "pass",
    ),
    (
        "flip-owner-demote-guard",
        "poststore",
        "if entry.owner is not None and entry.owner != cell_id:",
        "if entry.owner is not None and entry.owner == cell_id:",
    ),
    (
        "widen-exclusive-to-atomic",
        "write",
        "atomic=atomic,",
        "atomic=True,",
    ),
]


@pytest.mark.parametrize("name,op,old,new", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_is_flagged_with_named_transition(name, op, old, new):
    findings, _ = conformance_findings(_mutate(old, new))
    assert findings, f"mutant {name} escaped the conformance diff"
    ops = {f.detail["op"] for f in findings}
    assert op in ops, f"mutant {name} flagged, but not on op {op}: {ops}"
    for f in findings:
        assert f.rule == "KSR113"
        assert f.path == "coherence/protocol.py"
        assert f.line > 0
        # the counterexample names the transition on both sides
        assert "guard" in f.detail and "model" in f.detail and "code" in f.detail
        assert set(f.detail["guard"]) == {
            "atomic",
            "owner_is_actor",
            "owner_exists",
            "has_valid",
            "created",
            "placeholders",
            "actor_valid",
        }


def test_unmutated_protocol_has_no_findings():
    findings, _ = conformance_findings(_protocol_source())
    assert findings == []


def test_missing_transition_reads_as_model_requires():
    findings, _ = conformance_findings(
        _mutate("self.directory.set_atomic(subpage_id, cell_id, False)", "pass")
    )
    kinds = {f.detail["kind"] for f in findings}
    assert "missing_in_code" in kinds
    assert any("abstract model requires" in f.message for f in findings)


def test_widened_transition_reads_as_model_forbids():
    findings, _ = conformance_findings(_mutate("atomic=atomic,", "atomic=True,"))
    kinds = {f.detail["kind"] for f in findings}
    assert "forbidden_in_model" in kinds
    assert any("abstract model forbids" in f.message for f in findings)
