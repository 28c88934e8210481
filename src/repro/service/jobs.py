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

Each kind knows its plan (the point calls it computes, which admission
prices) and runs exactly that plan on a provided
:class:`~repro.experiments.sweep.SweepRunner`, assembling its payload
from the values; everything else (queueing, batching, caching, capture
summaries) is the scheduler's business.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.experiments.base import CATALOG, Plan, plan_of, run_plan
from repro.experiments.sweep import SweepRunner
from repro.machine.config import MAX_CELLS
from repro.obs import ObsSpec

__all__ = ["JobSpec", "ServiceError", "SERVED_EXPERIMENTS", "describe_catalog"]


class ServiceError(ValueError):
    """A client error with the HTTP status it should surface as."""

    def __init__(self, message: str, *, status: int = 400):
        super().__init__(message)
        self.status = status


#: The per-point figures (fig2–fig5), by catalog id.  A service exists
#: to answer many small requests, so each one's defaults are its
#: ``--quick`` sizes; a client wanting paper-size sweeps says so.
SERVED_EXPERIMENTS = {key: e for key, e in CATALOG.items() if e.min_procs}


def _served_defaults(key: str) -> dict[str, Any]:
    """An experiment's quick sizes, its processor counts named ``procs``."""
    params = SERVED_EXPERIMENTS[key].params(quick=True)
    return {("procs" if k == "proc_counts" else k): v for k, v in params.items()}


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
            key: {"title": entry.title, "defaults": _served_defaults(key)}
            for key, entry in SERVED_EXPERIMENTS.items()
        },
        "campaign": {"defaults": _CAMPAIGN_DEFAULTS},
        "point": {"defaults": _POINT_DEFAULTS},
    }


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_rate(value: Any) -> bool:
    """A number in [0, 1)."""
    return (_is_int(value) or isinstance(value, float)) and 0 <= value < 1


#: Most entries a list param may hold: a job is priced at its distinct
#: points, yet builds and tabulates every entry of a list of repeats.
_MAX_ENTRIES = 64


def _list_of(item: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, list) and 0 < len(v) <= _MAX_ENTRIES and all(map(item, v))


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
    "rates": (f"a list of 1 to {_MAX_ENTRIES} numbers in [0, 1)", _list_of(_is_rate)),
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
            f"a list of 1 to {_MAX_ENTRIES} integers in [{min_procs}, {MAX_CELLS}]",
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
        with_obs = body.get("obs", False)
        if not isinstance(with_obs, bool):
            raise ServiceError("'obs' must be true or false")
        if kind == "experiment":
            exp = body.get("experiment")
            if not isinstance(exp, str) or exp not in SERVED_EXPERIMENTS:
                raise ServiceError(
                    f"unknown experiment {exp!r} "
                    f"(served: {', '.join(SERVED_EXPERIMENTS)})"
                )
            params = _merge_params(
                body, _served_defaults(exp), kind=f"experiment {exp}",
                min_procs=SERVED_EXPERIMENTS[exp].min_procs,
            )
            params["experiment"] = exp
        elif kind == "campaign":
            # a campaign measures lock contention, which needs two processors
            params = _merge_params(body, _CAMPAIGN_DEFAULTS, kind="campaign", min_procs=2)
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

    def _runner_params(self) -> dict[str, Any]:
        """The job's parameters under its functions' names, its ``obs`` spec included."""
        names = {"procs": "proc_counts", "rates": "fault_rates"}
        params = {names.get(k, k): v for k, v in self.param_dict().items()}
        return {**params, "obs": ObsSpec() if self.with_obs else None}

    def plan(self) -> Plan:
        """The point calls this job computes (its admission price counts them)."""
        params = self._runner_params()
        if self.kind == "experiment":
            return SERVED_EXPERIMENTS[params.pop("experiment")].plan_for(**params)
        if self.kind == "campaign":
            from repro.faults.campaign import campaign_plan

            return campaign_plan(**params)
        from repro.experiments.locks import measure_lock
        from repro.faults.plan import FaultPlan

        call = dict(
            kind=params["lock"], n_procs=params["n_procs"], read_fraction=params["read_fraction"],
            ops=params["ops"], seed=params["seed"],
            plan=FaultPlan(corruption_rate=params["fault_rate"]),
        )
        return plan_of(measure_lock, [call], params["obs"])

    def execute(self, runner: SweepRunner) -> dict[str, Any]:
        """Run this job's plan on ``runner``; return the JSON-safe payload."""
        values = run_plan(self.plan(), runner)
        params = self._runner_params()
        if self.kind == "experiment":
            exp = params.pop("experiment")
            result = SERVED_EXPERIMENTS[exp].result(params, values)
            return {
                "experiment": exp, **result.doc(), "series": dict(result.series),
                "rendered": result.render(),
            }
        if self.kind == "campaign":
            from repro.faults.campaign import campaign_assemble

            campaign = campaign_assemble(params, values)
            return {**campaign.doc(), "rendered": campaign.render()}
        point = values[0]
        return {"seconds": point.seconds, "faults": dict(point.faults)}
