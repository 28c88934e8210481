"""Command-line front end: ``ksr-analyze``.

Runs the static-analysis and verification passes over the simulator.

Examples::

    ksr-analyze --list
    ksr-analyze                          # all passes, text report
    ksr-analyze modelcheck --cells 2 3 4
    ksr-analyze flow --strict            # whole-program dataflow
    ksr-analyze flow lint --strict --format sarif --output report.sarif  # CI
    ksr-analyze flow --write-baseline    # accept current findings
    ksr-analyze scenarios                # enumerate + sampled differential runs
    ksr-analyze scenarios --mode run --jobs 4   # execute the full corpus
    ksr-analyze scenarios --check        # replay the committed manifest (CI)
    ksr-analyze scenarios --write-manifest      # pin the current corpus

``lint`` and ``flow`` select rules from one run of the static analyzer
(:func:`repro.analysis.flow.run_flow`), so selecting both parses the
tree once and reports each finding once.

Every pass reports through the same :class:`Finding` pipeline, so any
selection of passes renders as ``text``, ``json`` or ``sarif`` and
filters through the shared baseline file
(:mod:`repro.analysis.flow.baseline`).

Exit status: 0 when every selected pass is clean, 1 when findings
remain (or, under ``--strict``, when baseline entries went stale),
2 on usage errors.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from repro.errors import ReproError
from repro.util.cli import (
    build_parser,
    install_sigpipe_handler,
    positive_int,
    print_unknown,
    resolve_selection,
    write_report,
)

__all__ = ["main", "PASSES"]


@dataclass
class PassResult:
    """Uniform outcome of one analysis pass."""

    ok: bool
    text: str
    findings: list = field(default_factory=list)
    stats: dict[str, Any] = field(default_factory=dict)


def _run_modelcheck(args) -> PassResult:
    from repro.analysis.modelcheck import check_protocol

    lines = []
    ok = True
    for n_cells in args.cells:
        result = check_protocol(n_cells)
        ok = ok and result.ok
        lines.append(result.summary())
    return PassResult(ok, "\n".join(lines), stats={"cells": list(args.cells)})


def _run_races(args) -> PassResult:
    from repro.analysis.races import (
        default_audit_workload,
        perturbed_contended_workload,
        perturbed_default_workload,
        run_perturbed,
    )

    lines = []
    ok = True

    _, auditor = default_audit_workload(audit=True)
    assert auditor is not None
    flags = auditor.report()
    lines.append(
        f"audit[race-free workload]: {'OK' if not flags else 'FAIL'} — "
        f"{auditor.n_events_audited} events, {len(flags)} same-instant conflict(s)"
    )
    for flag in flags[:10]:
        lines.append(f"  {flag}")
    ok = ok and not flags

    report = run_perturbed(perturbed_default_workload, n_runs=args.runs)
    lines.append(report.summary())
    ok = ok and report.state_deterministic

    # The contended run demonstrates detection: cache residency and
    # timing may legitimately vary with grant order, but the data the
    # program computes must not.
    contended = run_perturbed(perturbed_contended_workload, n_runs=args.runs)
    lines.append(
        f"perturbation[contended lock, informational]: data "
        f"{'deterministic' if contended.data_deterministic else 'DIVERGED'}, "
        f"state {'deterministic' if contended.state_deterministic else 'tie-order sensitive (expected)'}"
    )
    ok = ok and contended.data_deterministic
    return PassResult(ok, "\n".join(lines), stats={"runs": args.runs})


def _source_findings(args, *, lint: bool):
    """The one analyzer run over ``src/repro`` — parsed once per
    invocation, shared by ``lint`` and ``flow`` — and the findings of
    the lint rules (``lint=True``) or of the dataflow passes."""
    from repro.analysis.flow import run_flow
    from repro.analysis.flow.rules import LINT_RULES

    if getattr(args, "source_report", None) is None:
        args.source_report = run_flow()
    report = args.source_report
    return report, [f for f in report.findings if (f.rule in LINT_RULES) == lint]


def _run_lint(args) -> PassResult:
    _, findings = _source_findings(args, lint=True)
    header = (
        f"lint[src/repro]: {'OK' if not findings else 'FAIL'} — "
        f"{len(findings)} violation(s)"
    )
    return PassResult(not findings, header, findings=findings)


def _run_flow(args) -> PassResult:
    report, findings = _source_findings(args, lint=False)
    ok = not findings
    det = report.passes.get("determinism", {}).get("stats", {})
    pur = report.passes.get("purity", {}).get("stats", {})
    bits = [
        f"determinism {det.get('functions_analyzed', 0)} fns",
        f"purity {pur.get('call_sites', 0)} sites",
    ]
    header = (
        f"flow[src/repro]: {'OK' if ok else 'FAIL'} — "
        f"{len(findings)} finding(s) ({', '.join(bits)})"
    )
    return PassResult(ok, header, findings=findings, stats=report.passes)


def _scenario_finding(rule: str, message: str, snippet: str, detail: dict):
    from repro.analysis.flow.findings import Finding

    return Finding(
        rule=rule,
        path="coherence/protocol.py" if rule == "KSR120" else "analysis/scenarios",
        line=1,
        col=0,
        message=message,
        snippet=snippet,
        detail=detail,
    )


def _run_scenarios(args) -> PassResult:
    from pathlib import Path as _Path

    from repro.analysis.scenarios import (
        DEFAULT_MANIFEST,
        HAND_WRITTEN_GRID_POINTS,
        ScenarioModel,
        build_manifest,
        check_manifest,
        corpus_document,
        enumerate_classes,
        load_manifest,
        run_corpus,
        sample_classes,
        write_manifest,
    )

    lines: list[str] = []
    findings: list = []
    stats: dict[str, Any] = {}

    manifest_path = _Path(args.manifest) if args.manifest else _Path.cwd() / DEFAULT_MANIFEST

    if args.write_manifest:
        manifest = build_manifest(seed=args.seed, sample_per_config=args.sample)
        write_manifest(manifest_path, manifest)
        total = sum(c["n_classes"] for c in manifest["configs"])
        lines.append(
            f"scenarios[manifest]: pinned {len(manifest['configs'])} config(s), "
            f"{total} classes to {manifest_path}"
        )
        return PassResult(not findings, "\n".join(lines), findings=findings, stats=stats)

    if args.check:
        manifest = load_manifest(manifest_path)
        report = check_manifest(manifest, jobs=args.jobs)
        for kind, message, detail in report.problems:
            findings.append(
                _scenario_finding(
                    "KSR121" if kind == "drift" else "KSR120",
                    message,
                    snippet=str(detail.get("key", detail.get("config", ""))),
                    detail=detail,
                )
            )
        lines.append(
            f"scenarios[check]: {'OK' if report.ok else 'FAIL'} — "
            f"{len(manifest['configs'])} config(s), {report.n_classes} classes, "
            f"{report.n_executed} pinned representative(s) replayed, "
            f"{len(report.problems)} problem(s)"
        )
        stats["check"] = {
            "n_classes": report.n_classes,
            "n_executed": report.n_executed,
            "n_problems": len(report.problems),
        }
        if args.corpus:
            enums = [
                enumerate_classes(
                    ScenarioModel(c["n_cells"], c["n_subpages"]), c["depth"]
                )
                for c in manifest["configs"]
            ]
            _Path(args.corpus).write_text(
                json.dumps(corpus_document(enums), indent=2) + "\n", encoding="utf-8"
            )
            lines.append(f"scenarios[corpus]: wrote {args.corpus}")
        return PassResult(not findings, "\n".join(lines), findings=findings, stats=stats)

    enums = []
    for n_cells in args.cells:
        for n_subpages in args.subpages:
            enum = enumerate_classes(ScenarioModel(n_cells, n_subpages), args.depth)
            enums.append(enum)
            lines.append(
                f"scenarios[{n_cells}c/{n_subpages}sp/depth {enum.depth}]: "
                f"{len(enum.classes)} classes from {enum.n_schedules} canonical "
                f"schedules (digest {enum.digest()})"
            )
    total = sum(len(e.classes) for e in enums)
    lines.append(
        f"scenarios[coverage]: {total} distinct executable scenarios vs "
        f"{HAND_WRITTEN_GRID_POINTS} hand-written litmus grid points "
        f"({total / HAND_WRITTEN_GRID_POINTS:.1f}x)"
    )
    stats["enumerate"] = {
        "configs": [[e.n_cells, e.n_subpages, e.depth, len(e.classes)] for e in enums],
        "n_classes": total,
    }

    run = None
    if args.mode == "run":
        run = run_corpus(enums, jobs=args.jobs, seed=args.seed)
    elif args.mode == "stats":
        run = run_corpus(
            enums,
            jobs=args.jobs,
            seed=args.seed,
            classes_for=lambda e: sample_classes(e, args.sample, args.seed),
        )
    if run is not None:
        for config, key, verdict in run.failures:
            kinds = ", ".join(k for k, _m in verdict["divergences"])
            findings.append(
                _scenario_finding(
                    "KSR120",
                    f"config {config}: class {key} diverged ({kinds})",
                    snippet=repr(verdict["schedule"]),
                    detail={"config": list(config), "key": key, "verdict": verdict},
                )
            )
        lines.append(
            f"scenarios[differential]: {'OK' if run.ok else 'FAIL'} — "
            f"{run.n_executed} representative(s) executed, "
            f"{run.n_divergent} divergence(s)"
        )
        stats["differential"] = {
            "n_executed": run.n_executed,
            "n_divergent": run.n_divergent,
        }
    if args.corpus:
        _Path(args.corpus).write_text(
            json.dumps(corpus_document(enums, run=run), indent=2) + "\n",
            encoding="utf-8",
        )
        lines.append(f"scenarios[corpus]: wrote {args.corpus}")
    return PassResult(not findings, "\n".join(lines), findings=findings, stats=stats)


PASSES = {
    "modelcheck": ("Exhaustive ALLCACHE protocol state-space check", _run_modelcheck),
    "races": ("DES same-instant conflict audit + tie-break perturbation", _run_races),
    "lint": (
        "Lint rules for sim-code hazards (KSR100, KSR102, KSR103, KSR114)",
        _run_lint,
    ),
    "flow": (
        "Whole-program dataflow: determinism, coherence-state mutation, "
        "cache-key purity (KSR110–112)",
        _run_flow,
    ),
    "scenarios": (
        "Symbolic scenario corpus: enumerate interleavings of the protocol "
        "relation, differential runs on multi-subpage machines (KSR120–121)",
        _run_scenarios,
    ),
}

_RUNNERS: dict[str, Callable[[Any], PassResult]] = {k: v[1] for k, v in PASSES.items()}


def _repo_baseline() -> Optional[Path]:
    """The checked-in baseline next to the working tree, if present."""
    from repro.analysis.flow.baseline import DEFAULT_BASELINE

    candidate = Path.cwd() / DEFAULT_BASELINE
    return candidate if candidate.exists() else None


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``ksr-analyze``."""
    install_sigpipe_handler()
    parser = build_parser(
        "ksr-analyze",
        "Verify the KSR-1 simulator: protocol model checking, "
        "determinism auditing and the static analyzer (lint rules and "
        "whole-program dataflow).",
        positional="passes",
        positional_help="pass ids (see --list), or 'all' (default: all)",
    )
    parser.add_argument(
        "--cells",
        type=int,
        nargs="+",
        default=[2, 3],
        metavar="N",
        help="cell counts for the model checker (default: 2 3)",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=4,
        metavar="N",
        help="shuffled tie-break runs for the perturbation check (default: 4)",
    )
    parser.add_argument(
        "--subpages",
        type=int,
        nargs="+",
        default=[1, 2],
        metavar="N",
        help="subpage counts for the scenarios pass (default: 1 2)",
    )
    parser.add_argument(
        "--depth",
        type=int,
        default=4,
        metavar="N",
        help="interleaving bound for the scenarios pass (default: 4)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=1,
        metavar="N",
        help="machine seed / sample offset for scenario execution (default: 1)",
    )
    parser.add_argument(
        "--jobs",
        type=positive_int,
        default=1,
        metavar="N",
        help="sweep-runner worker processes for corpus execution (default: 1)",
    )
    parser.add_argument(
        "--mode",
        choices=("enumerate", "stats", "run"),
        default="stats",
        help="scenarios pass: enumerate only, execute a sample (stats), "
        "or execute every class representative (run)",
    )
    parser.add_argument(
        "--sample",
        type=int,
        default=25,
        metavar="N",
        help="representatives executed per config in stats mode, and "
        "pinned per config by --write-manifest (default: 25)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="scenarios pass: replay the committed corpus manifest and "
        "fail on class drift or divergence (CI mode)",
    )
    parser.add_argument(
        "--manifest",
        metavar="FILE",
        default=None,
        help="scenario corpus manifest (default: .ksr-scenario-manifest.json)",
    )
    parser.add_argument(
        "--corpus",
        metavar="FILE",
        default=None,
        help="also write the enumerated corpus as JSON to FILE",
    )
    parser.add_argument(
        "--write-manifest",
        action="store_true",
        help="pin the default corpus grid into the manifest and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format for findings-producing passes (default: text)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings and on stale baseline entries (CI mode)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="suppress findings recorded in FILE "
        "(default: .ksr-analyze-baseline.json when present)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record current findings as the new baseline and exit",
    )
    args = parser.parse_args(argv)
    if args.list:
        for key, (title, _) in PASSES.items():
            print(f"{key:12s} {title}")
        return 0
    wanted, unknown = resolve_selection(args.passes or ["all"], PASSES)
    if unknown:
        return print_unknown(unknown, "pass")

    from repro.analysis.flow.baseline import Baseline, BaselineError
    from repro.analysis.flow.findings import (
        findings_to_json,
        findings_to_sarif,
        findings_to_text,
    )

    baseline_path = Path(args.baseline) if args.baseline else _repo_baseline()
    try:
        baseline = Baseline.load(baseline_path) if baseline_path else Baseline()
    except BaselineError as exc:
        print(f"ksr-analyze: {exc}", file=sys.stderr)
        return 2

    all_ok = True
    sections = []
    findings = []
    pass_stats: dict[str, dict[str, Any]] = {}
    for key in wanted:
        runner = _RUNNERS[key]
        try:
            result = runner(args)
        except ReproError as exc:
            print(f"ksr-analyze: {key}: {exc}", file=sys.stderr)
            return 2
        findings.extend(result.findings)
        pass_stats[key] = {"ok": result.ok, **({"stats": result.stats} if result.stats else {})}
        all_ok = all_ok and result.ok
        if args.format == "text":
            print(result.text)
            print()
        sections.append(f"## {key}\n\n```\n{result.text}\n```\n")

    if args.write_baseline:
        target = baseline_path or Path.cwd() / ".ksr-analyze-baseline.json"
        n = Baseline.write(target, findings)
        print(f"ksr-analyze: wrote {n} baseline entr{'y' if n == 1 else 'ies'} to {target}")
        return 0

    kept, suppressed = baseline.apply(findings)
    stale = baseline.stale()
    has_errors = any(f.severity == "error" for f in kept)
    has_warnings = any(f.severity != "error" for f in kept)
    failed = (
        not all_ok
        or has_errors
        or (args.strict and (has_warnings or bool(stale)))
    )

    if args.format == "json":
        rendered = findings_to_json(
            kept, passes=pass_stats, suppressed=suppressed, stale_baseline=stale
        )
        print(rendered)
    elif args.format == "sarif":
        rendered = findings_to_sarif(kept)
        print(rendered)
    else:
        rendered = None
        if kept:
            print(findings_to_text(kept))
        if suppressed:
            print(f"ksr-analyze: {suppressed} finding(s) suppressed by baseline")
        for entry in stale:
            print(
                f"ksr-analyze: stale baseline entry {entry['rule']} "
                f"{entry['path']} {entry['span']} (no longer matches)"
                + (" — failing under --strict" if args.strict else "")
            )

    if args.output:
        if rendered is not None:
            Path(args.output).write_text(rendered + "\n", encoding="utf-8")
        else:
            write_report(args.output, "ksr-analyze report", sections)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
