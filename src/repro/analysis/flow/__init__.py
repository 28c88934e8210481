"""The one static analyzer over ``src/repro`` (``ksr-analyze flow lint``).

:mod:`~repro.analysis.flow.program` loads the package once as a
:class:`~repro.analysis.flow.program.Program`; every rule reads that
one tree:

* **Lint rules** (KSR100, KSR102, KSR103, KSR114;
  :mod:`~repro.analysis.flow.rules`) — per-module checks for
  wall-clock and stdlib-random imports in simulator code, ``==`` on
  simulated-time floats, ad-hoc RNG construction and grant-heap writes
  outside ``SlottedRing._claim``.  ``ksr-analyze lint`` selects them.
* **Determinism dataflow** (KSR110, KSR111) — track nondeterminism
  sources (set iteration order, unsorted directory listings, wall
  clock, unregistered RNGs, ``id()``) through assignments and calls
  until they reach a determinism sink (engine scheduling, cache keys,
  observability capture), and keep coherence-state mutation inside the
  protocol, whether spelled directly or through aliases.
* **Cache-key purity** (KSR112) — statically verify that every kwarg
  type handed to :func:`repro.experiments.sweep.point_key` defines a
  stable ``repr`` or a ``cache_token``, turning the runtime
  ``TypeError`` into an analysis-time finding.

Findings are uniform :class:`~repro.analysis.flow.findings.Finding`
records rendered as text, JSON or SARIF, with a baseline-file
suppression mechanism keyed by AST-span hashes (line-drift proof).
"""

from repro.analysis.flow.baseline import Baseline
from repro.analysis.flow.determinism import determinism_findings
from repro.analysis.flow.findings import (
    Finding,
    findings_to_json,
    findings_to_sarif,
    findings_to_text,
    span_hash,
)
from repro.analysis.flow.purity import purity_findings
from repro.analysis.flow.runner import FlowReport, run_flow

__all__ = [
    "Baseline",
    "Finding",
    "FlowReport",
    "determinism_findings",
    "findings_to_json",
    "findings_to_sarif",
    "findings_to_text",
    "purity_findings",
    "run_flow",
    "span_hash",
]
