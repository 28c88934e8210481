"""Static-analysis and verification passes over the simulator.

Every pass runs from the ``ksr-analyze`` CLI (:mod:`repro.analysis.cli`)
and from pytest; import the submodule that holds it:

* :mod:`repro.analysis.modelcheck` — exhaustive reachability checking
  of the real ALLCACHE protocol, abstracted per state (one subpage,
  2-4 cells);
* :mod:`repro.analysis.races` — same-timestamp conflict auditing and
  tie-break perturbation runs of the discrete-event engine;
* :mod:`repro.analysis.flow` — the one static analyzer: lint rules and
  whole-program dataflow over ``src/repro``, parsed once;
* :mod:`repro.analysis.scenarios` — symbolic scenario enumeration over
  that relation and differential runs on multi-subpage machines.

The package root imports nothing, so reading :data:`MODEL_VERSION`
(as cache keying does) loads no analyzer.
"""

#: Semantic version of the scenario model
#: (:mod:`repro.analysis.scenarios.model`); folded into sweep cache keys
#: (see :func:`repro.experiments.sweep.code_version`) and recorded in
#: corpus manifests so a model change can never replay stale results.
MODEL_VERSION = "1"
