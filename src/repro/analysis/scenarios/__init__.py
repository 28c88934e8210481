"""Commuter-style symbolic scenario generation for the ALLCACHE protocol.

Enumerate every bounded interleaving of protocol operations on a small
abstract machine (2–3 cells, 1–2 subpages), reduce them up to
cell/subpage symmetry, partition them into behaviour-equivalence
classes, and execute one representative per class on the real
simulator with a differential oracle.  See the submodules:

* :mod:`.model` — product model whose per-subpage relation is the
  real protocol's (:class:`~repro.analysis.modelcheck.CoherenceModel`);
* :mod:`.explore` — symmetry-reduced BFS enumeration into classes;
* :mod:`.oracle` — lowering (with quiescence-drain suffix) and the
  differential comparison of the one-subpage product against real
  multi-subpage runs;
* :mod:`.corpus` — sweep-runner fan-out, pinned manifest, CI check.
"""

from repro.analysis.scenarios.corpus import (
    DEFAULT_GRID,
    DEFAULT_MANIFEST,
    HAND_WRITTEN_GRID_POINTS,
    CheckReport,
    CorpusRun,
    build_manifest,
    check_manifest,
    corpus_document,
    execute_scenarios,
    load_manifest,
    run_corpus,
    sample_classes,
    write_manifest,
)
from repro.analysis.scenarios.explore import Enumeration, ScenarioClass, enumerate_classes
from repro.analysis.scenarios.model import (
    MODEL_VERSION,
    Prediction,
    ScenarioModel,
    Step,
    behaviour_key,
    canonicalize,
    is_canonical,
    run_model,
)
from repro.analysis.scenarios.oracle import (
    DifferentialResult,
    Divergence,
    differential_run,
    lower_schedule,
)

__all__ = [
    "MODEL_VERSION",
    "DEFAULT_GRID",
    "DEFAULT_MANIFEST",
    "HAND_WRITTEN_GRID_POINTS",
    "Step",
    "Prediction",
    "ScenarioModel",
    "ScenarioClass",
    "Enumeration",
    "Divergence",
    "DifferentialResult",
    "CorpusRun",
    "CheckReport",
    "run_model",
    "canonicalize",
    "is_canonical",
    "behaviour_key",
    "enumerate_classes",
    "lower_schedule",
    "differential_run",
    "execute_scenarios",
    "run_corpus",
    "sample_classes",
    "build_manifest",
    "load_manifest",
    "write_manifest",
    "check_manifest",
    "corpus_document",
]
