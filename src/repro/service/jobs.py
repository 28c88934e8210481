"""Job specs: what one service request asks the machine to compute.

A :class:`JobSpec` is the validated, canonicalised form of one request
body.  Canonicalisation matters twice: it is how the batching layer
coalesces identical concurrent requests into one execution, and it is
what makes a job's identity stable for logs and tests.

Three kinds are served (the same shapes `ksr-experiments`/`ksr-faults`
expose, so a service response can be diffed against CLI output
byte-for-byte):

* ``experiment`` — one figure sweep (fig2/fig3/fig4/fig5); every sweep
  point fans out through the scheduler's shared runner.
* ``campaign`` — a fault campaign (processors x corruption rates) via
  :mod:`repro.faults.campaign`.
* ``point`` — a single lock measurement under a fault plan
  (:func:`repro.experiments.locks.measure_lock` with ``plan``), the
  smallest request the API accepts.

Each kind knows how to run itself against a provided
:class:`~repro.experiments.sweep.SweepRunner`; everything else (queueing,
batching, caching, capture summaries) is the scheduler's business.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.experiments.base import MIN_PROCS, ExperimentResult
from repro.experiments.sweep import SweepRunner
from repro.machine.config import MAX_CELLS
from repro.obs import ObsSpec

__all__ = ["JobSpec", "ServiceError", "SERVED_EXPERIMENTS", "describe_catalog"]


class ServiceError(ValueError):
    """A client error with the HTTP status it should surface as."""

    def __init__(self, message: str, *, status: int = 400):
        super().__init__(message)
        self.status = status


def _run_fig2(params: dict[str, Any], runner: SweepRunner, obs: ObsSpec | None):
    from repro.experiments.latency import run_figure2

    return run_figure2(
        proc_counts=params["procs"], samples=params["samples"],
        seed=params["seed"], runner=runner, obs=obs,
    )


def _run_fig3(params: dict[str, Any], runner: SweepRunner, obs: ObsSpec | None):
    from repro.experiments.locks import run_figure3

    return run_figure3(
        proc_counts=params["procs"], ops=params["ops"],
        seed=params["seed"], runner=runner, obs=obs,
    )


def _run_fig4(params: dict[str, Any], runner: SweepRunner, obs: ObsSpec | None):
    from repro.experiments.barriers import run_figure4

    return run_figure4(
        proc_counts=params["procs"], reps=params["reps"],
        seed=params["seed"], runner=runner, obs=obs,
    )


def _run_fig5(params: dict[str, Any], runner: SweepRunner, obs: ObsSpec | None):
    from repro.experiments.barriers import run_figure5

    return run_figure5(
        proc_counts=params["procs"], reps=params["reps"],
        seed=params["seed"], runner=runner, obs=obs,
    )


#: Experiment id -> (title, defaults, runner adapter).  Defaults mirror
#: the CLIs' ``--quick`` sizes: a service exists to answer many small
#: requests, and a client wanting paper-size sweeps says so explicitly.
SERVED_EXPERIMENTS: dict[str, tuple[str, dict[str, Any], Callable]] = {
    "fig2": (
        "Figure 2: memory-hierarchy latencies",
        {"procs": [1, 2, 8, 32], "samples": 400, "seed": 101},
        _run_fig2,
    ),
    "fig3": (
        "Figure 3: lock performance",
        {"procs": [2, 8, 32], "ops": 30, "seed": 303},
        _run_fig3,
    ),
    "fig4": (
        "Figure 4: barriers on the 32-node KSR-1",
        {"procs": [4, 16, 32], "reps": 6, "seed": 404},
        _run_fig4,
    ),
    "fig5": (
        "Figure 5: barriers on the 64-node KSR-2",
        {"procs": [16, 32, 48, 64], "reps": 6, "seed": 404},
        _run_fig5,
    ),
}

_CAMPAIGN_DEFAULTS: dict[str, Any] = {
    "procs": [8, 16], "rates": [0.0, 1e-4], "ops": 10, "seed": 303,
}

_POINT_DEFAULTS: dict[str, Any] = {
    "lock": "rw", "n_procs": 8, "read_fraction": 0.0, "ops": 10,
    "seed": 303, "fault_rate": 0.0,
}


def describe_catalog() -> dict[str, Any]:
    """What ``GET /v1/experiments`` reports: kinds, ids, defaults."""
    return {
        "experiments": {
            key: {"title": title, "defaults": defaults}
            for key, (title, defaults, _) in SERVED_EXPERIMENTS.items()
        },
        "campaign": {"defaults": _CAMPAIGN_DEFAULTS},
        "point": {"defaults": _POINT_DEFAULTS},
    }


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_rate(value: Any) -> bool:
    """A number in [0, 1)."""
    return (_is_int(value) or isinstance(value, float)) and 0 <= value < 1


def _list_of(item: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, list) and bool(v) and all(item(x) for x in v)


def _is_procs(low: int) -> Callable[[Any], bool]:
    """An integer processor count from ``low`` up to the largest machine."""
    return lambda v: _is_int(v) and low <= v <= MAX_CELLS


#: Parameter name -> (what it must be, check); ``procs`` is checked
#: against the job's own minimum.
_RULES: dict[str, tuple[str, Callable[[Any], bool]]] = {
    **{
        name: ("a positive integer", lambda v: _is_int(v) and v >= 1)
        for name in ("ops", "samples", "reps")
    },
    "n_procs": (f"an integer in [1, {MAX_CELLS}]", _is_procs(1)),
    "seed": ("a non-negative integer", lambda v: _is_int(v) and v >= 0),
    "read_fraction": (
        "a number in [0, 1]",
        lambda v: (_is_int(v) or isinstance(v, float)) and 0 <= v <= 1,
    ),
    "fault_rate": ("a number in [0, 1)", _is_rate),
    "rates": ("a non-empty list of numbers in [0, 1)", _list_of(_is_rate)),
    "lock": ("'rw' or 'hardware'", lambda v: v in ("rw", "hardware")),
}


def _merge_params(
    body: dict[str, Any], defaults: dict[str, Any], *, kind: str, min_procs: int = 1
) -> dict[str, Any]:
    """Defaults overlaid with the request's params, each checked.

    Unknown keys and values that do not fit their parameter are 400s
    naming the parameter.
    """
    given = body.get("params", {})
    if not isinstance(given, dict):
        raise ServiceError(f"{kind}: 'params' must be an object")
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ServiceError(
            f"{kind}: unknown param(s) {', '.join(unknown)} "
            f"(accepted: {', '.join(sorted(defaults))})"
        )
    rules = {
        **_RULES,
        "procs": (
            f"a non-empty list of integers in [{min_procs}, {MAX_CELLS}]",
            _list_of(_is_procs(min_procs)),
        ),
    }
    for name, value in given.items():
        want, ok = rules[name]
        if not ok(value):
            raise ServiceError(f"{kind}: '{name}' must be {want}")
    return {**defaults, **given}


@dataclass(frozen=True)
class JobSpec:
    """One validated request: kind + full parameter set + obs flag."""

    kind: str
    #: Sorted ``(name, value)`` pairs — hashable, canonically ordered.
    params: tuple[tuple[str, Any], ...]
    with_obs: bool = False

    @classmethod
    def from_request(cls, body: dict[str, Any]) -> "JobSpec":
        """Parse + validate one POST /v1/jobs body."""
        if not isinstance(body, dict):
            raise ServiceError("request body must be a JSON object")
        kind = body.get("kind")
        with_obs = bool(body.get("obs", False))
        if kind == "experiment":
            exp = body.get("experiment")
            if exp not in SERVED_EXPERIMENTS:
                raise ServiceError(
                    f"unknown experiment {exp!r} "
                    f"(served: {', '.join(SERVED_EXPERIMENTS)})"
                )
            _, defaults, _ = SERVED_EXPERIMENTS[exp]
            params = _merge_params(
                body, defaults, kind=f"experiment {exp}", min_procs=MIN_PROCS[exp]
            )
            params["experiment"] = exp
        elif kind == "campaign":
            params = _merge_params(
                body, _CAMPAIGN_DEFAULTS, kind="campaign", min_procs=MIN_PROCS["campaign"]
            )
        elif kind == "point":
            params = _merge_params(body, _POINT_DEFAULTS, kind="point")
        else:
            raise ServiceError(
                f"unknown job kind {kind!r} (served: experiment, campaign, point)"
            )
        frozen = tuple(
            (k, tuple(v) if isinstance(v, list) else v)
            for k, v in sorted(params.items())
        )
        return cls(kind=kind, params=frozen, with_obs=with_obs)

    def param_dict(self) -> dict[str, Any]:
        """Parameters as a plain dict (lists restored for runners)."""
        return {
            k: list(v) if isinstance(v, tuple) else v for k, v in self.params
        }

    def canonical(self) -> str:
        """Stable identity used for coalescing identical requests."""
        return repr((self.kind, self.params, self.with_obs))

    # -- execution ----------------------------------------------------

    def execute(self, runner: SweepRunner) -> dict[str, Any]:
        """Run this job on ``runner``; return the JSON-safe payload."""
        obs = ObsSpec() if self.with_obs else None
        params = self.param_dict()
        if self.kind == "experiment":
            exp = params.pop("experiment")
            _, _, adapter = SERVED_EXPERIMENTS[exp]
            result: ExperimentResult = adapter(params, runner, obs)
            return {
                "experiment": exp,
                "experiment_id": result.experiment_id,
                "title": result.title,
                "headers": result.headers,
                "rows": result.rows,
                "notes": result.notes,
                "series": {name: pts for name, pts in result.series.items()},
                "rendered": result.render(),
            }
        if self.kind == "campaign":
            from repro.faults.campaign import run_campaign

            campaign = run_campaign(
                proc_counts=params["procs"], fault_rates=params["rates"],
                ops=params["ops"], seed=params["seed"], runner=runner, obs=obs,
            )
            return {
                "experiment_id": campaign.result.experiment_id,
                "title": campaign.result.title,
                "headers": campaign.result.headers,
                "rows": campaign.result.rows,
                "notes": campaign.result.notes,
                "points": [
                    {"n_procs": p, "fault_rate": r, **stats}
                    for (p, r), stats in sorted(campaign.points.items())
                ],
                "rendered": campaign.render(),
            }
        # point
        from repro.experiments.locks import measure_lock
        from repro.faults.plan import FaultPlan

        call = dict(
            kind=params["lock"], n_procs=params["n_procs"],
            read_fraction=params["read_fraction"], ops=params["ops"],
            seed=params["seed"],
            plan=FaultPlan(corruption_rate=params["fault_rate"]),
        )
        if obs is not None:
            call["obs"] = obs
        point = runner.map(measure_lock, [call])[0]
        return {
            "seconds": point.seconds,
            "faults": {name: value for name, value in point.faults},
        }
