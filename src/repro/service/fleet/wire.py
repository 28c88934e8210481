"""Fleet wire protocol: how the coordinator and workers talk.

Two channels, both over plain HTTP so the fleet runs in the same bare
container as everything else:

* **JSON** for the control plane (health, stats) — identical to the
  public ``ksr-serve`` API, so a human can curl any fleet member.
* **Pickle** for the data plane (``/v1/fleet/*``) — sweep point calls
  carry values like :class:`~repro.faults.plan.FaultPlan` and results
  carry :class:`~repro.obs.probes.ObsCapture`; pickling them preserves
  the byte-identity contract (the federated payload is assembled from
  the *same objects* a single daemon would produce).

Functions are never pickled: a map request names its point function as
``module.qualname`` and the worker re-imports it, restricted to the
``repro.`` package — the same identity :func:`repro.experiments.sweep.
point_key` hashes, so routing and caching agree on what a function
*is*.

Trust model: once the fleet leaves the trusted loopback segment every
fleet control/data-plane call carries a shared-secret token
(``X-Fleet-Token``, compared constant-time by :class:`FleetAuth`).
The pickle endpoints are for authenticated fleet peers, not untrusted
clients, and the auth seam is pluggable so a TLS-terminating proxy can
sit in front (hand it a :class:`FleetAuth` with no secret and let the
proxy enforce identity instead).  Even so, :func:`load_payload` decodes
through :func:`repro.experiments.sweep.safe_loads`, which resolves only
``repro`` dataclasses: a leaked token cannot make a worker call a
function it names in a pickle.
"""

from __future__ import annotations

import hmac
import importlib
import io
import json
import pickle
import secrets
import urllib.error
import urllib.request
from typing import Any, Callable

from repro.experiments.sweep import safe_loads

__all__ = [
    "WireError",
    "FleetAuth",
    "FLEET_TOKEN_HEADER",
    "FLEET_TOKEN_ENV",
    "PICKLE_CONTENT_TYPE",
    "dump_payload",
    "load_payload",
    "get_json",
    "get_pickle",
    "post_json",
    "post_pickle",
    "resolve_point_func",
]

#: Content type marking a pickled fleet-internal payload.
PICKLE_CONTENT_TYPE = "application/x-ksr-fleet-pickle"

#: Header carrying the fleet shared secret on every fleet call.
FLEET_TOKEN_HEADER = "X-Fleet-Token"

#: Environment variable ``ksr-serve`` reads the secret from, so it
#: never appears in ``ps`` output the way an argv flag would.
FLEET_TOKEN_ENV = "KSR_FLEET_TOKEN"


class FleetAuth:
    """Shared-secret authentication for fleet control/data-plane calls.

    One instance is shared by everything on one side of a connection:
    clients attach :meth:`headers` to outgoing fleet requests, servers
    :meth:`verify` the presented token with a constant-time compare
    (``hmac.compare_digest`` — a timing oracle on the token would
    defeat the point of having one).

    ``secret=None`` disables enforcement — the seam for deployments
    that terminate TLS (with client certs or a proxy-enforced identity)
    in front of the fleet, and for the pre-multi-host loopback mode.
    """

    def __init__(self, secret: str | None = None):
        self.secret = secret

    @classmethod
    def generate(cls) -> "FleetAuth":
        """A fresh random token (one-process fleets mint their own)."""
        return cls(secrets.token_hex(16))

    @property
    def enabled(self) -> bool:
        return self.secret is not None

    def headers(self) -> dict[str, str]:
        """Headers a fleet client attaches to an outgoing call."""
        if self.secret is None:
            return {}
        return {FLEET_TOKEN_HEADER: self.secret}

    def verify(self, presented: str | None) -> bool:
        """Constant-time check of one presented token value."""
        if self.secret is None:
            return True
        if not presented:
            return False
        return hmac.compare_digest(self.secret.encode("utf-8"),
                                   presented.encode("utf-8"))

#: Only functions inside the installed package may be named in a map
#: request; anything else is refused before import.
ALLOWED_FUNC_PREFIX = "repro."


class WireError(RuntimeError):
    """A fleet peer could not be reached or answered malformed data.

    The coordinator treats this as *worker failure*, not job failure:
    the batch is re-routed to the surviving replica set.
    """

    def __init__(self, message: str, *, status: int | None = None):
        super().__init__(message)
        self.status = status


def dump_payload(obj: Any) -> bytes:
    """Pickle one fleet payload (highest protocol, like the caches)."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def load_payload(data: bytes) -> Any:
    """Unpickle one fleet payload; malformed bytes raise WireError.

    Decodes through the result cache's allowlisted unpickler, so a
    payload can name only ``repro`` dataclasses, never a callable.
    """
    try:
        return safe_loads(data)
    except Exception as exc:  # noqa: BLE001 - anything unpicklable is a peer fault
        raise WireError(f"malformed fleet payload: {type(exc).__name__}: {exc}") from exc


def _request(url: str, *, data: bytes | None, headers: dict[str, str],
             method: str, timeout: float) -> tuple[int, bytes]:
    request = urllib.request.Request(url, data=data, headers=headers, method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        # An HTTP status is still an *answer*; read the body so callers
        # can distinguish "peer said no" from "peer is gone".
        body = exc.read() if exc.fp is not None else b""
        return exc.code, body
    except (urllib.error.URLError, OSError, io.UnsupportedOperation) as exc:
        raise WireError(f"{method} {url}: {exc}") from exc


def _auth_headers(auth: "FleetAuth | None") -> dict[str, str]:
    return auth.headers() if auth is not None else {}


def get_json(
    url: str, *, timeout: float = 10.0, auth: "FleetAuth | None" = None
) -> tuple[int, dict[str, Any]]:
    """GET a JSON document; ``(status, doc)``.  Unreachable → WireError."""
    status, body = _request(url, data=None, headers=_auth_headers(auth),
                            method="GET", timeout=timeout)
    try:
        doc = json.loads(body) if body else {}
    except json.JSONDecodeError as exc:
        raise WireError(f"GET {url}: non-JSON response") from exc
    if not isinstance(doc, dict):
        raise WireError(f"GET {url}: expected a JSON object")
    return status, doc


def post_json(
    url: str, doc: dict[str, Any], *, timeout: float = 10.0,
    auth: "FleetAuth | None" = None,
) -> tuple[int, dict[str, Any]]:
    """POST a JSON document, return ``(status, json_response)``.

    The control-plane counterpart of :func:`post_pickle` — worker
    registration goes over this channel so a human can drive it with
    curl too.
    """
    payload = json.dumps(doc, sort_keys=True).encode("utf-8")
    headers = {"Content-Type": "application/json",
               "Content-Length": str(len(payload)),
               **_auth_headers(auth)}
    status, body = _request(url, data=payload, headers=headers,
                            method="POST", timeout=timeout)
    try:
        out = json.loads(body) if body else {}
    except json.JSONDecodeError as exc:
        raise WireError(f"POST {url}: non-JSON response") from exc
    if not isinstance(out, dict):
        raise WireError(f"POST {url}: expected a JSON object")
    return status, out


def post_pickle(
    url: str, obj: Any, *, timeout: float = 600.0,
    auth: "FleetAuth | None" = None,
) -> tuple[int, Any]:
    """POST a pickled payload, return ``(status, unpickled_response)``.

    A non-2xx status with a JSON body comes back as ``(status, doc)``;
    an unreachable peer raises :class:`WireError`.
    """
    payload = dump_payload(obj)
    status, body = _request(
        url,
        data=payload,
        headers={"Content-Type": PICKLE_CONTENT_TYPE,
                 "Content-Length": str(len(payload)),
                 **_auth_headers(auth)},
        method="POST",
        timeout=timeout,
    )
    if status >= 400:
        try:
            return status, json.loads(body) if body else {}
        except json.JSONDecodeError:
            return status, {"error": body.decode("utf-8", "replace")}
    return status, load_payload(body)


def get_pickle(
    url: str, *, timeout: float = 30.0, auth: "FleetAuth | None" = None
) -> tuple[int, Any]:
    """GET a pickled payload; 404 returns ``(404, None)`` (a clean miss)."""
    status, body = _request(url, data=None, headers=_auth_headers(auth),
                            method="GET", timeout=timeout)
    if status == 404:
        return status, None
    if status >= 400:
        raise WireError(f"GET {url}: HTTP {status}", status=status)
    return status, load_payload(body)


def resolve_point_func(func_id: str) -> Callable[..., Any]:
    """Import ``module.qualname`` back into a callable, allowlisted.

    The id is the exact string ``point_key`` hashes, so a worker
    computing a routed call produces the same cache key the coordinator
    routed on.
    """
    module_name, _, qualname = func_id.rpartition(".")
    if not module_name.startswith(ALLOWED_FUNC_PREFIX):
        raise WireError(
            f"refusing to resolve {func_id!r}: point functions must live "
            f"under {ALLOWED_FUNC_PREFIX}*"
        )
    try:
        module = importlib.import_module(module_name)
        func = module
        for part in qualname.split("."):
            func = getattr(func, part)
    except (ImportError, AttributeError) as exc:
        raise WireError(f"cannot resolve point function {func_id!r}: {exc}") from exc
    if not callable(func):
        raise WireError(f"{func_id!r} is not callable")
    return func  # type: ignore[return-value]
