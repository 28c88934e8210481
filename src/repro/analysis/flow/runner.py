"""Orchestration for ``ksr-analyze flow``.

Loads the program once, runs the per-module lint rules and the two
dataflow pillars (determinism, purity) over it, and folds the results
into one :class:`FlowReport` the CLI can render in any format and
filter through a baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.analysis.flow.determinism import determinism_findings
from repro.analysis.flow.findings import Finding
from repro.analysis.flow.program import Program, load_program
from repro.analysis.flow.purity import purity_findings
from repro.analysis.flow.rules import lint_findings

__all__ = ["FlowReport", "run_flow"]


@dataclass
class FlowReport:
    """Everything one flow run produced."""

    findings: list[Finding] = field(default_factory=list)
    #: pass name -> {"ok": bool, "stats": {...}} (ok = pass *ran*;
    #: findings decide success separately).
    passes: dict[str, dict[str, Any]] = field(default_factory=dict)


def run_flow(sources: Optional[dict[str, str]] = None) -> FlowReport:
    """Run every source pass over the package (or explicit sources).

    ``sources`` short-circuits program loading for tests.
    """
    program: Program = load_program(sources)
    report = FlowReport()

    report.findings.extend(lint_findings(program))

    det, det_stats = determinism_findings(program)
    report.findings.extend(det)
    report.passes["determinism"] = {"ok": True, "stats": det_stats}

    pur, pur_stats = purity_findings(program)
    report.findings.extend(pur)
    report.passes["purity"] = {"ok": True, "stats": pur_stats}
    return report
