"""Uniform findings and their text / JSON / SARIF renderings.

Every analysis pass — the lint rules (KSR100, KSR102, KSR103, KSR114),
the ``flow`` dataflow rules (KSR110–112) and the scenario corpus
(KSR120–121) — reports through one record type so the
CLI can render any selection of passes in any format, and so the
baseline mechanism (:mod:`repro.analysis.flow.baseline`) can suppress
accepted findings regardless of which pass produced them.

Span hashes
-----------
A finding is identified across edits by ``(rule, path, span_hash)``
where the span hash digests the *whitespace-normalized source text* of
the flagged AST span, not its position.  Inserting lines above a
finding moves its line number but not its hash, so accepted baselines
do not churn with unrelated edits.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

__all__ = [
    "RULES",
    "Finding",
    "span_hash",
    "findings_to_text",
    "findings_to_json",
    "findings_to_sarif",
]

#: The full rule catalog (DESIGN §12–§13).  KSR101 is retired into
#: KSR111 and KSR113 (the old code-vs-model conformance diff) into the
#: model checker, which now runs the real protocol; KSR104–109 are
#: reserved.
RULES: dict[str, str] = {
    "KSR100": "simulator code must not import wall-clock or stdlib randomness",
    "KSR102": "no ==/!= on simulated-time floats",
    "KSR103": "no ad-hoc RNG construction outside repro.util.rng",
    "KSR110": "nondeterministic value flows into a determinism sink",
    "KSR111": "coherence state mutated outside the protocol (directly or via an alias)",
    "KSR112": "cache-key argument type lacks a stable repr or cache_token",
    "KSR114": "ring grant heap mutated outside SlottedRing._claim",
    "KSR120": "generated scenario diverged from the symbolic protocol model",
    "KSR121": "scenario corpus drifted from the committed manifest",
}


@dataclass(frozen=True)
class Finding:
    """One analysis finding at a source location.

    ``snippet`` holds the source text of the flagged span; it feeds the
    span hash and makes JSON reports reviewable without opening files.
    ``severity`` is ``error`` | ``warning`` | ``note`` — warnings fail
    only under ``--strict``.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""
    severity: str = "error"
    #: Free-form extra context, e.g. the taint trace for KSR110 or the
    #: divergent scenario for KSR120.
    detail: dict[str, Any] = field(default_factory=dict, compare=False, hash=False)

    @property
    def span(self) -> str:
        """The drift-stable identity hash of this finding."""
        return span_hash(self.rule, self.path, self.snippet)

    def key(self) -> tuple[str, str, str]:
        """Baseline identity: rule + file + AST-span hash."""
        return (self.rule, self.path, self.span)

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def span_hash(rule: str, path: str, snippet: str) -> str:
    """Digest a finding's identity from its rule, file and source span.

    The snippet is whitespace-normalized (every run of whitespace,
    including newlines, collapses to one space) so re-indenting or
    re-wrapping the flagged code does not change the hash.
    """
    normalized = " ".join(snippet.split())
    payload = f"{rule}\0{path}\0{normalized}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def findings_to_text(findings: Iterable[Finding]) -> str:
    """One line per finding, stable order."""
    ordered = sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
    return "\n".join(str(f) for f in ordered)


def findings_to_json(
    findings: Iterable[Finding],
    *,
    passes: Optional[dict[str, dict[str, Any]]] = None,
    suppressed: int = 0,
    stale_baseline: Optional[list[dict[str, str]]] = None,
) -> str:
    """Machine-readable report: findings plus per-pass outcomes."""
    doc: dict[str, Any] = {
        "tool": "ksr-analyze",
        "findings": [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "severity": f.severity,
                "message": f.message,
                "snippet": f.snippet,
                "span": f.span,
                **({"detail": f.detail} if f.detail else {}),
            }
            for f in sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
        ],
        "suppressed": suppressed,
    }
    if passes is not None:
        doc["passes"] = passes
    if stale_baseline:
        doc["stale_baseline"] = stale_baseline
    return json.dumps(doc, indent=2, sort_keys=False)


#: SARIF severity levels per finding severity.
_SARIF_LEVEL = {"error": "error", "warning": "warning", "note": "note"}


def findings_to_sarif(findings: Iterable[Finding]) -> str:
    """A minimal SARIF 2.1.0 log (one run, one result per finding).

    Enough of the schema for GitHub code-scanning upload and for the
    CI artifact: tool driver with the rule catalog, one result per
    finding with a physical location and the span hash as a partial
    fingerprint.
    """
    ordered = sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
    used_rules = sorted({f.rule for f in ordered} | set())
    rules = [
        {
            "id": rule,
            "shortDescription": {"text": RULES.get(rule, rule)},
        }
        for rule in (used_rules or sorted(RULES))
    ]
    rule_index = {r["id"]: i for i, r in enumerate(rules)}
    results = [
        {
            "ruleId": f.rule,
            "ruleIndex": rule_index[f.rule],
            "level": _SARIF_LEVEL.get(f.severity, "error"),
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path},
                        "region": {
                            "startLine": max(f.line, 1),
                            "startColumn": f.col + 1,
                        },
                    }
                }
            ],
            "partialFingerprints": {"ksrSpanHash/v1": f.span},
        }
        for f in ordered
    ]
    doc = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "ksr-analyze",
                        "informationUri": "https://example.invalid/ksr-analyze",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2)
