"""Scenario corpus: batch execution, pinned manifest, CI replay.

The enumerator yields behaviour classes per *config* — a ``(n_cells,
n_subpages, depth)`` triple.  This module turns a grid of configs into
an executable corpus:

* :func:`run_corpus` fans the differential runs out through
  :class:`repro.experiments.sweep.SweepRunner`, one point per batch of
  up to :data:`BATCH` class representatives of one config.  The point
  function is pure (schedules + config + seed determine the outcome),
  so corpus execution parallelizes and caches exactly like any paper
  sweep, and a batch shares one model's relation memo.  The
  scenario :data:`~repro.analysis.scenarios.model.MODEL_VERSION` rides
  in every point's kwargs (and in ``code_version()``), so a model
  change can never replay stale verdicts.
* :func:`build_manifest` / :func:`check_manifest` pin the corpus for
  CI: the manifest records, per config, the class count, schedule
  count and an order-independent digest of the class partition, plus a
  deterministic sample of class keys whose representatives are
  re-executed on every check.  Class-count or digest drift and any
  oracle divergence fail the check.

Sampling is a seed-offset stride over the key-sorted classes — no RNG
objects (the package-wide KSR103 rule), same slice everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from repro.analysis.scenarios.explore import Enumeration, ScenarioClass, enumerate_classes
from repro.analysis.scenarios.model import MODEL_VERSION, ScenarioModel
from repro.analysis.scenarios.oracle import differential_run
from repro.errors import ConfigError

__all__ = [
    "DEFAULT_MANIFEST",
    "DEFAULT_GRID",
    "HAND_WRITTEN_GRID_POINTS",
    "CorpusRun",
    "CheckReport",
    "execute_scenarios",
    "run_corpus",
    "sample_classes",
    "build_manifest",
    "load_manifest",
    "write_manifest",
    "check_manifest",
    "corpus_document",
]

#: Committed manifest file name (repo root / current directory).
DEFAULT_MANIFEST = ".ksr-scenario-manifest.json"

#: The pinned corpus grid: (n_cells, n_subpages, depth) per config.
#: Chosen so the corpus stays a few seconds to execute in full while
#: exceeding the hand-written litmus grids by well over an order of
#: magnitude (~4 500 classes vs ~94 grid points).
DEFAULT_GRID: tuple[tuple[int, int, int], ...] = (
    (2, 1, 5),
    (3, 1, 4),
    (2, 2, 4),
    (3, 2, 4),
)

#: Hand-written litmus coverage: the 3x3 LB grid, the 3^4 IRIW grid
#: and the four default-skew baselines (tests/coherence/test_litmus.py).
HAND_WRITTEN_GRID_POINTS = 9 + 81 + 4

#: Class representatives one sweep point runs (see :func:`execute_scenarios`).
BATCH = 256


def execute_scenarios(
    *,
    schedules: tuple,
    n_cells: int,
    n_subpages: int,
    seed: int,
    model_version: str,
) -> list[dict[str, Any]]:
    """Sweep point function: one differential run per schedule of a
    batch from one config, each verdict plain data.

    The batch shares one :class:`ScenarioModel`, so each protocol
    transition it needs is replayed on a machine once per point, not
    once per schedule.  Module-level and pure so :class:`SweepRunner`
    can pickle it to worker processes and cache its result;
    ``model_version`` is part of the signature purely to key the cache.
    """
    if model_version != MODEL_VERSION:
        raise ConfigError(
            f"scenario point built for model {model_version}, "
            f"running model {MODEL_VERSION}"
        )
    model = ScenarioModel(n_cells, n_subpages)
    verdicts = []
    for schedule in schedules:
        result = differential_run(tuple(tuple(s) for s in schedule), model=model, seed=seed)
        verdicts.append(
            {
                "ok": result.ok,
                "schedule": [list(s) for s in result.schedule],
                "lowered": [list(s) for s in result.lowered],
                "divergences": [[d.kind, d.message] for d in result.divergences],
            }
        )
    return verdicts


@dataclass(frozen=True)
class CorpusRun:
    """Outcome of executing (part of) a corpus."""

    n_executed: int
    n_divergent: int
    #: (config, class key, verdict dict) per divergent scenario.
    failures: tuple[tuple[tuple[int, int, int], str, dict[str, Any]], ...]

    @property
    def ok(self) -> bool:
        return self.n_divergent == 0


def run_corpus(
    enumerations: list[Enumeration],
    *,
    jobs: int = 1,
    seed: int = 1,
    cache: Optional[Any] = None,
    classes_for: Optional[Callable[[Enumeration], list[ScenarioClass]]] = None,
) -> CorpusRun:
    """Execute class representatives through the sweep runner.

    ``classes_for`` selects which classes of each enumeration run (the
    manifest check passes the pinned sample; default: all of them).
    """
    from repro.experiments.sweep import SweepRunner

    calls: list[dict[str, Any]] = []
    owners: list[tuple[tuple[int, int, int], str]] = []
    for enum in enumerations:
        config = (enum.n_cells, enum.n_subpages, enum.depth)
        classes = list(classes_for(enum) if classes_for is not None else enum.classes)
        for start in range(0, len(classes), BATCH):
            batch = classes[start : start + BATCH]
            calls.append(
                {
                    "schedules": tuple(cls.schedule for cls in batch),
                    "n_cells": enum.n_cells,
                    "n_subpages": enum.n_subpages,
                    "seed": seed,
                    "model_version": MODEL_VERSION,
                }
            )
            owners.extend((config, cls.key) for cls in batch)
    with SweepRunner(jobs=jobs, cache=cache) as runner:
        results = [v for batch in runner.map(execute_scenarios, calls) for v in batch]
    failures = tuple(
        (config, key, verdict)
        for (config, key), verdict in zip(owners, results)
        if not verdict["ok"]
    )
    return CorpusRun(
        n_executed=len(results),
        n_divergent=len(failures),
        failures=failures,
    )


def sample_classes(enum: Enumeration, k: int, seed: int) -> list[ScenarioClass]:
    """A deterministic ``k``-element slice of the class partition.

    Stride sampling over the key-sorted classes with a seed-derived
    offset: reproducible everywhere without constructing an RNG, and
    spread across the whole behaviour space rather than clustered at
    the shallow end.
    """
    if k < 0:
        raise ConfigError(f"sample size must be >= 0, got {k}")
    ordered = sorted(enum.classes, key=lambda c: c.key)
    if k == 0 or k >= len(ordered):
        return ordered if k else []
    stride = max(1, len(ordered) // k)
    offset = seed % stride
    return ordered[offset::stride][:k]


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------


def build_manifest(
    grid: tuple[tuple[int, int, int], ...] = DEFAULT_GRID,
    *,
    seed: int = 1,
    sample_per_config: int = 40,
) -> dict[str, Any]:
    """Enumerate the grid and pin counts, digests and a replay sample."""
    configs = []
    for n_cells, n_subpages, depth in grid:
        enum = enumerate_classes(ScenarioModel(n_cells, n_subpages), depth)
        configs.append(
            {
                "n_cells": n_cells,
                "n_subpages": n_subpages,
                "depth": depth,
                "n_classes": len(enum.classes),
                "n_schedules": enum.n_schedules,
                "digest": enum.digest(),
                "sample": [c.key for c in sample_classes(enum, sample_per_config, seed)],
            }
        )
    return {
        "tool": "ksr-analyze scenarios",
        "model_version": MODEL_VERSION,
        "seed": seed,
        "sample_per_config": sample_per_config,
        "configs": configs,
    }


def write_manifest(path: Path, manifest: dict[str, Any]) -> None:
    """Serialize a manifest to ``path`` (pretty JSON, trailing newline)."""
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def load_manifest(path: Path) -> dict[str, Any]:
    """Read a manifest; :class:`ConfigError` on unreadable/foreign files."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read scenario manifest {path}: {exc}") from exc
    if not isinstance(doc, dict) or "configs" not in doc:
        raise ConfigError(f"{path} is not a scenario manifest")
    return doc


@dataclass(frozen=True)
class CheckReport:
    """Manifest replay verdict: drift entries + divergent scenarios."""

    #: (kind, message, detail) — kind is ``drift`` or ``divergence``.
    problems: tuple[tuple[str, str, dict[str, Any]], ...]
    n_classes: int
    n_executed: int

    @property
    def ok(self) -> bool:
        return not self.problems


def check_manifest(
    manifest: dict[str, Any],
    *,
    jobs: int = 1,
    cache: Optional[Any] = None,
) -> CheckReport:
    """Re-enumerate every pinned config and replay the pinned sample.

    Drift (class count, schedule count, partition digest, model
    version, vanished sample keys) and any differential divergence
    are reported; an empty report means the committed corpus still
    describes this tree exactly.
    """
    problems: list[tuple[str, str, dict[str, Any]]] = []
    if manifest.get("model_version") != MODEL_VERSION:
        problems.append(
            (
                "drift",
                f"manifest pinned model_version={manifest.get('model_version')!r}, "
                f"tree has {MODEL_VERSION!r} — regenerate with --write-manifest",
                {"manifest": manifest.get("model_version"), "tree": MODEL_VERSION},
            )
        )
    seed = int(manifest.get("seed", 1))
    n_classes = 0
    enums: list[Enumeration] = []
    samples: list[list[ScenarioClass]] = []
    for cfg in manifest["configs"]:
        triple = (cfg["n_cells"], cfg["n_subpages"], cfg["depth"])
        enum = enumerate_classes(ScenarioModel(cfg["n_cells"], cfg["n_subpages"]), cfg["depth"])
        n_classes += len(enum.classes)
        for field, actual in (
            ("n_classes", len(enum.classes)),
            ("n_schedules", enum.n_schedules),
            ("digest", enum.digest()),
        ):
            if cfg.get(field) != actual:
                problems.append(
                    (
                        "drift",
                        f"config {triple}: {field} was {cfg.get(field)!r}, now {actual!r}",
                        {"config": list(triple), "field": field},
                    )
                )
        by_key = {c.key: c for c in enum.classes}
        picked: list[ScenarioClass] = []
        for key in cfg.get("sample", []):
            cls = by_key.get(key)
            if cls is None:
                problems.append(
                    (
                        "drift",
                        f"config {triple}: pinned class {key} no longer exists",
                        {"config": list(triple), "key": key},
                    )
                )
            else:
                picked.append(cls)
        enums.append(enum)
        samples.append(picked)
    by_enum = dict(zip([id(e) for e in enums], samples))
    run = run_corpus(
        enums,
        jobs=jobs,
        seed=seed,
        cache=cache,
        classes_for=lambda e: by_enum[id(e)],
    )
    for config, key, verdict in run.failures:
        kinds = ", ".join(kind for kind, _msg in verdict["divergences"])
        problems.append(
            (
                "divergence",
                f"config {config}: class {key} diverged ({kinds})",
                {"config": list(config), "key": key, "verdict": verdict},
            )
        )
    return CheckReport(
        problems=tuple(problems),
        n_classes=n_classes,
        n_executed=run.n_executed,
    )


def corpus_document(
    enumerations: list[Enumeration],
    *,
    run: Optional[CorpusRun] = None,
) -> dict[str, Any]:
    """JSON-serializable corpus artifact (CI upload / offline replay)."""
    failed = {key for _cfg, key, _v in (run.failures if run else ())}
    return {
        "tool": "ksr-analyze scenarios",
        "model_version": MODEL_VERSION,
        "configs": [
            {
                "n_cells": e.n_cells,
                "n_subpages": e.n_subpages,
                "depth": e.depth,
                "n_classes": len(e.classes),
                "n_schedules": e.n_schedules,
                "digest": e.digest(),
                "classes": [
                    {
                        "key": c.key,
                        "schedule": [list(s) for s in c.schedule],
                        "n_members": c.n_members,
                        **({"diverged": True} if c.key in failed else {}),
                    }
                    for c in e.classes
                ],
            }
            for e in enumerations
        ],
    }
