"""Parallel deterministic sweep runner with on-disk result caching.

Every artifact in the paper is regenerated by sweeping the cycle-level
DES over processor counts — a bag of *independent* (experiment,
proc_count) points.  Each point function builds a fresh machine whose
every random draw comes from named sub-streams of an explicit seed
(:mod:`repro.util.rng`), so a point's value is a pure function of its
arguments.  That purity is what makes the two features here sound:

* **One execution seam** — :class:`SweepRunner` computes its cache
  misses through one :class:`Backend`: :class:`InlineBackend` in-process,
  or a persistent :class:`ProcessPoolBackend` that every ``map`` of the
  runner shares.  Results come back in submission order and each point
  re-derives its RNG streams from its own arguments, so a parallel run
  is byte-identical to the serial one.
* **Result cache** — :class:`ResultCache` memoises point values on disk
  under ``.ksr-cache/`` (override with ``$KSR_CACHE_DIR``), keyed by a
  SHA-256 of (code version, function identity, canonical arguments).
  The code version hashes every source file of the installed ``repro``
  package, so any code change invalidates the whole cache.  The same
  class serves ``ksr-serve`` and its fleet workers, which add a size
  cap, pinning and peer read-through.  Every pickle the program reads
  decodes through one allowlisted unpickler (:func:`safe_loads`).

This module deliberately lives *outside* the KSR100-linted simulator
packages (``sim``/``machine``/``ring``/``coherence``/``sync``): process
pools, ``os`` and host filesystems are harness concerns and must never
leak into simulated time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import os
import pickle
import re
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Protocol, Sequence

__all__ = [
    "Backend",
    "CACHE_FORMAT_VERSION",
    "InlineBackend",
    "ProcessPoolBackend",
    "ResultCache",
    "SweepRunner",
    "backend_for",
    "code_version",
    "point_key",
    "safe_loads",
    "source_digest",
]

# Determinism sinks for `ksr-analyze flow` (KSR110): anything keyed
# into the result cache must be reproducible across processes.
__ksr_flow_sinks__ = ("point_key",)

#: Default cache directory (relative to the current working directory).
CACHE_DIR_DEFAULT = ".ksr-cache"
#: Environment variable overriding the cache location.
CACHE_DIR_ENV = "KSR_CACHE_DIR"
#: Bumped when the on-disk layout changes; a cache directory marked
#: with another format is refused rather than misread.
CACHE_FORMAT_VERSION = 2
#: The shape of every :func:`point_key` (a SHA-256 hex digest).
_KEY = re.compile(r"[0-9a-f]{64}")

_code_version: str | None = None


def code_version() -> str:
    """SHA-256 over every source file of the installed ``repro`` package.

    Computed once per process (:func:`source_digest` is the uncached
    hash).  Any change to the simulator, kernels or experiment code
    yields a new version and therefore a cold cache — the cache can
    never serve values computed by different code.
    """
    global _code_version
    if _code_version is None:
        _code_version = source_digest()
    return _code_version


def source_digest() -> str:
    """The hash :func:`code_version` caches, computed from the tree now.

    The declared semantic versions of the fault injector, the
    macro-event batching layer and the scenario model are folded in
    explicitly: they guard the cache even if those subsystems move
    outside the hashed tree, and they make the dependency visible at
    the key level.
    """
    import repro
    from repro.analysis import MODEL_VERSION as SCENARIO_MODEL_VERSION
    from repro.faults.plan import INJECTOR_VERSION
    from repro.sim.batch import BATCH_VERSION

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    digest.update(
        f"injector={INJECTOR_VERSION};batch={BATCH_VERSION};"
        f"scenarios={SCENARIO_MODEL_VERSION}".encode()
    )
    digest.update(b"\0")
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


#: ``repr`` of an object without a real ``__repr__`` embeds its memory
#: address (``<pkg.Cls object at 0x7f...>``); such a "key" differs in
#: every process, so it can never hit and only pollutes the cache.
_ADDRESS_REPR = re.compile(r" at 0x[0-9a-fA-F]+>")


def _canonical_value(value: Any, *, where: str) -> str:
    """Stable textual form of one argument value.

    An argument exposing a ``cache_token`` attribute (e.g.
    :class:`repro.faults.FaultPlan`) contributes that token instead of
    its ``repr`` — the token embeds the producing subsystem's version,
    so semantic changes there invalidate cached points even when the
    ``repr`` is unchanged.  Containers (lists, tuples, dicts, sets) are
    canonicalised element-wise so a token-bearing value keeps its token
    at any nesting depth; dict and set members are sorted by canonical
    form, making the key independent of insertion order.

    ``where`` names the kwarg being canonicalised, so rejection errors
    can point at the offending argument.
    """
    token = getattr(value, "cache_token", None)
    if token is not None:
        return f"<cache_token:{token}>"
    if isinstance(value, (list, tuple)):
        inner = ", ".join(_canonical_value(v, where=where) for v in value)
        if isinstance(value, tuple):
            return f"({inner},)" if len(value) == 1 else f"({inner})"
        return f"[{inner}]"
    if isinstance(value, dict):
        items = sorted(
            (_canonical_value(k, where=where), _canonical_value(v, where=where))
            for k, v in value.items()
        )
        return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
    if isinstance(value, (set, frozenset)):
        inner = ", ".join(sorted(_canonical_value(v, where=where) for v in value))
        return f"{type(value).__name__}({{{inner}}})"
    text = repr(value)
    if _ADDRESS_REPR.search(text):
        raise TypeError(
            f"point_key: kwarg {where} has a repr embedding a memory address "
            f"({text}); per-process addresses make cache keys that never hit. "
            f"Pass a value with a stable repr, or one exposing a cache_token."
        )
    return text


def _canonical_kwargs(kwargs: dict[str, Any]) -> str:
    """Stable textual form of a point's keyword arguments.

    ``repr`` of sorted items is deterministic for the argument types
    point functions take (numbers, strings, bools, config dataclasses);
    values with a ``cache_token`` are keyed by that token instead, and
    address-bearing default reprs are rejected outright (see
    :func:`_canonical_value`).
    """
    items = ", ".join(
        f"({key!r}, {_canonical_value(value, where=repr(key))})"
        for key, value in sorted(kwargs.items())
    )
    return f"[{items}]"


def point_key(func: Callable[..., Any], kwargs: dict[str, Any]) -> str:
    """Cache key for one (code version, function, arguments) point."""
    payload = "\n".join(
        (code_version(), f"{func.__module__}.{func.__qualname__}", _canonical_kwargs(kwargs))
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class _DataclassUnpickler(pickle.Unpickler):
    """Unpickler that resolves only dataclasses defined under ``repro``.

    Every pickle the program reads — cache entries on disk and fleet
    payloads off the wire — decodes through this class.  Builtin
    containers and scalars need no class lookup; anything else a
    payload names (``os.system``, a ``repro`` function, a class with
    side effects in its constructor) raises :class:`pickle.UnpicklingError`
    instead of being imported and called.
    """

    def find_class(self, module: str, name: str) -> Any:
        found = super().find_class(module, name) if module.startswith("repro.") else None
        if isinstance(found, type) and dataclasses.is_dataclass(found):
            if found.__module__ == module:  # defined there, not re-exported
                return found
        raise pickle.UnpicklingError(
            f"refusing to unpickle {module}.{name}: only repro dataclasses are allowed"
        )


def safe_loads(data: bytes) -> Any:
    """Decode one pickle through the allowlisted :class:`_DataclassUnpickler`."""
    return _DataclassUnpickler(io.BytesIO(data)).load()


class ResultCache:
    """Pickle-per-point cache under one directory.

    * **Layout** — entries live at ``objects/ab/cd/<key>.pkl``, so no
      directory grows large enough to make ``readdir`` a hot spot.  A
      ``CACHE_FORMAT`` marker names the layout; another format is
      refused rather than misread.  Keys must look like
      :func:`point_key` digests, so no key can name a path outside the
      root.
    * **Atomic writes** — tempfile + ``os.replace``, so concurrent
      sweeps sharing a directory only ever observe complete entries.
    * **Corruption is a miss** — an entry that fails to read or decode
      is counted in :attr:`corrupt` and unlinked, so it cannot mask a
      later store.
    * **Size cap** — ``cap_bytes`` bounds the resident set by evicting
      least-recently-*used* entries (a read bumps the file's mtime),
      skipping keys pinned by an open :meth:`pin_session`.
    * **Read-through** — :attr:`remote_fetch` lets a fleet worker ask
      its replica peers before counting a miss; :meth:`peek` is the
      local-only read a peer answers with.

    The root is resolved to an absolute path once at construction, so
    a relative root names the same cache whichever directory later code
    runs from.  Counters, pins and eviction share one lock, so the
    service's threads can share an instance.
    """

    def __init__(
        self, root: str | os.PathLike[str] = CACHE_DIR_DEFAULT, *, cap_bytes: int | None = None
    ):
        if cap_bytes is not None and cap_bytes <= 0:
            raise ValueError(f"cap_bytes must be positive or None, got {cap_bytes}")
        self.root = Path(root).resolve()
        self.cap_bytes = cap_bytes
        self.hits = 0
        self.misses = 0
        #: Entries that existed on disk but failed to read/decode
        #: (always also counted in :attr:`misses`).
        self.corrupt = 0
        self.evictions = 0
        #: Misses served by :attr:`remote_fetch` (also counted in :attr:`hits`).
        self.remote_hits = 0
        #: Remote read-through seam: ``key -> (hit, value)``, consulted on
        #: a local miss.  A remote hit is adopted into the local store.
        #: ``None`` (the default) keeps the cache purely local.
        self.remote_fetch: Callable[[str], tuple[bool, Any]] | None = None
        self._lock = threading.Lock()
        #: Open pin sessions: owning thread id -> stack of key sets.  The
        #: scheduler runs one job per thread, so keys pin to the job that
        #: touched them, not to every job in flight.
        self._pins: dict[int, list[set[str]]] = {}
        marker = self.root / "CACHE_FORMAT"
        if marker.exists():
            found = marker.read_text().strip()
            if found != str(CACHE_FORMAT_VERSION):
                raise ValueError(
                    f"{self.root} holds cache format {found!r}, "
                    f"this build expects {CACHE_FORMAT_VERSION}"
                )
        else:
            (self.root / "objects").mkdir(parents=True, exist_ok=True)
            marker.write_text(f"{CACHE_FORMAT_VERSION}\n")

    @classmethod
    def default(cls) -> "ResultCache":
        """Cache at ``$KSR_CACHE_DIR`` or ``./.ksr-cache``."""
        return cls(os.environ.get(CACHE_DIR_ENV, CACHE_DIR_DEFAULT))

    def _path(self, key: str) -> Path:
        if not isinstance(key, str) or not _KEY.fullmatch(key):
            raise ValueError(f"malformed cache key {key!r}: expected 64 lowercase hex digits")
        return self.root / "objects" / key[:2] / key[2:4] / f"{key}.pkl"

    # -- pinning ------------------------------------------------------

    @contextmanager
    def pin_session(self) -> Iterator[set[str]]:
        """Pin every key this thread loads or stores until exit.

        Yields the live key set.  Eviction skips the union of all open
        sessions' keys, so an in-flight job's entries cannot be evicted
        by concurrent stores, while finished jobs' entries stay ordinary
        LRU citizens.
        """
        ident = threading.get_ident()
        keys: set[str] = set()
        with self._lock:
            self._pins.setdefault(ident, []).append(keys)
        try:
            yield keys
        finally:
            with self._lock:
                stack = self._pins[ident]
                stack.remove(keys)
                if not stack:
                    del self._pins[ident]

    def _note_touch(self, key: str) -> None:
        with self._lock:
            for keys in self._pins.get(threading.get_ident(), ()):
                keys.add(key)

    # -- load/store ---------------------------------------------------

    def _read(self, key: str) -> tuple[dict[str, Any] | None, bool]:
        """``(entry, corrupt)`` for the local file of ``key``.

        A missing file is ``(None, False)``.  A file that exists but
        fails to read or decode — whatever the exception — is unlinked
        and reported as ``(None, True)``.  A readable entry bumps LRU
        recency (any read is a use).
        """
        path = self._path(key)
        try:
            entry = safe_loads(path.read_bytes())
            entry = {"value": entry["value"], "meta": entry.get("meta", {})}
        except FileNotFoundError:
            return None, False
        except Exception:  # noqa: BLE001 - any decode failure is a corrupt miss
            try:
                path.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - unlink race / permissions
                pass
            return None, True
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - concurrent eviction
            pass
        return entry, False

    def load(self, key: str) -> tuple[bool, Any]:
        """Return ``(hit, value)``; any read/decode failure is a miss.

        A local miss consults :attr:`remote_fetch` when it is set: a
        remote hit is stored locally and counted in :attr:`remote_hits`
        and :attr:`hits`.  A corrupt local entry is a miss even when a
        peer then serves the point.
        """
        self._note_touch(key)
        entry, corrupt = self._read(key)
        if entry is not None:
            with self._lock:
                self.hits += 1
            return True, entry["value"]
        hit, value = False, None
        if self.remote_fetch is not None:
            try:
                hit, value = self.remote_fetch(key)
            except Exception:  # noqa: BLE001 - a sick peer degrades to a miss
                hit, value = False, None
        with self._lock:
            self.corrupt += corrupt
            self.misses += corrupt or not hit
            self.hits += hit
            self.remote_hits += hit
        if not hit:
            return False, None
        self.store(key, value, meta={"func": "", "origin": "read-through"})
        return True, value

    def peek(self, key: str) -> tuple[bool, Any, dict[str, Any]]:
        """Local-only read of ``(hit, value, meta)`` for fleet peers.

        No counters move and :attr:`remote_fetch` is *not* consulted —
        this is what a worker answers when a peer reads through to it,
        so two workers missing the same key can never ping-pong.
        """
        entry, _ = self._read(key)
        if entry is None:
            return False, None, {}
        return True, entry["value"], entry["meta"]

    def contains(self, key: str) -> bool:
        """Whether ``key`` is resident locally (no counters, no remote)."""
        return self._path(key).exists()

    def store(self, key: str, value: Any, *, meta: dict[str, Any] | None = None) -> None:
        """Persist one point value (best-effort: IO errors are ignored)."""
        self._note_touch(key)
        path = self._path(key)
        entry = {"value": value, "meta": meta or {}}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.parent / f".tmp-{os.getpid()}-{threading.get_ident()}-{key[:16]}"
            with open(tmp, "wb") as fh:
                pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            return
        if self.cap_bytes is not None:
            self.evict_to_cap()

    # -- residency and eviction ---------------------------------------

    def _resident(self) -> list[tuple[float, int, str, Path]]:
        """All entries as ``(mtime, size, key, path)``, least recently used first."""
        out = []
        for path in (self.root / "objects").glob("*/*/*.pkl"):
            try:
                st = path.stat()
            except OSError:  # pragma: no cover - concurrent eviction
                continue
            out.append((st.st_mtime, st.st_size, path.stem, path))
        out.sort()
        return out

    def resident_bytes(self) -> int:
        """Total size of all entries currently on disk."""
        return sum(size for _, size, _, _ in self._resident())

    def entry_count(self) -> int:
        """Number of entries currently on disk."""
        return len(self._resident())

    def keys(self) -> list[str]:
        """Sorted keys resident on local disk (no counters, no remote).

        The fleet repair planner diffs these lists across workers to
        find under-replicated keys.
        """
        return sorted(key for _, _, key, _ in self._resident())

    def fingerprint(self) -> str:
        """Digest of the resident key set: two stores holding the same
        keys fingerprint identically (a worker advertises it when it
        registers, so a warm rejoin is visible at a glance)."""
        digest = hashlib.sha256()
        for key in self.keys():
            digest.update(key.encode("ascii"))
            digest.update(b"\n")
        return digest.hexdigest()[:16]

    def evict_to_cap(self) -> int:
        """Drop least-recently-used unpinned entries until under the cap.

        Returns the number of entries evicted.  Pinned entries are never
        dropped, even if that leaves the cache over its cap until their
        session ends.
        """
        if self.cap_bytes is None:
            return 0
        entries = self._resident()
        total = sum(size for _, size, _, _ in entries)
        if total <= self.cap_bytes:
            return 0
        with self._lock:
            pinned = set().union(*(keys for stack in self._pins.values() for keys in stack))
        dropped = 0
        for _, size, key, path in entries:
            if total <= self.cap_bytes:
                break
            if key in pinned:
                continue
            try:
                path.unlink(missing_ok=True)
            except OSError:  # pragma: no cover
                continue
            total -= size
            dropped += 1
        with self._lock:
            self.evictions += dropped
        return dropped

    def stats(self) -> dict[str, Any]:
        """Where this cache lives, what it holds and how it has performed."""
        with self._lock:
            counters = {
                "hits": self.hits,
                "misses": self.misses,
                "corrupt": self.corrupt,
                "evictions": self.evictions,
                "remote_hits": self.remote_hits,
                "pinned": sum(len(k) for stack in self._pins.values() for k in stack),
            }
        entries = self._resident()
        return {
            "root": str(self.root),
            "format": CACHE_FORMAT_VERSION,
            "cap_bytes": self.cap_bytes,
            "bytes": sum(size for _, size, _, _ in entries),
            "entries": len(entries),
            "shards": len({path.parent for _, _, _, path in entries}),
            **counters,
        }


class Backend(Protocol):
    """Computes batches of pure point calls; any backend gives the same values."""

    name: str

    def map(self, func: Callable[..., Any], calls: Sequence[dict[str, Any]]) -> list[Any]:
        """Return ``func(**call)`` for every call, aligned with ``calls``."""
        ...

    def close(self) -> None:
        """Release workers (idempotent)."""
        ...


class InlineBackend:
    """Serial, in-process execution on the calling thread."""

    name = "inline"

    def map(self, func: Callable[..., Any], calls: Sequence[dict[str, Any]]) -> list[Any]:
        """Evaluate every call serially on the calling thread."""
        return [func(**kwargs) for kwargs in calls]

    def close(self) -> None:
        """Nothing to release."""


#: Points one :meth:`ProcessPoolBackend.map` submits before collecting
#: them: other jobs sharing the pool get in at each slice boundary.
POOL_SLICE = 64


class ProcessPoolBackend:
    """A worker pool, started by the first map that needs it, kept across maps."""

    def __init__(self, jobs: int = 2):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.name = f"process:{jobs}"
        self._pool: ProcessPoolExecutor | None = None

    def map(self, func: Callable[..., Any], calls: Sequence[dict[str, Any]]) -> list[Any]:
        """Fan calls across the pool in slices of :data:`POOL_SLICE`, in call order."""
        if len(calls) <= 1:  # don't pay IPC for a single point
            return [func(**kwargs) for kwargs in calls]
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        results: list[Any] = []
        for start in range(0, len(calls), POOL_SLICE):
            futures = [
                self._pool.submit(func, **kwargs) for kwargs in calls[start : start + POOL_SLICE]
            ]
            results.extend(future.result() for future in futures)
        return results

    def close(self) -> None:
        """Shut the pool down; a later map() starts a fresh one."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def backend_for(jobs: int) -> Backend:
    """:class:`InlineBackend` for one job, else a :class:`ProcessPoolBackend`."""
    return InlineBackend() if jobs == 1 else ProcessPoolBackend(jobs)


class SweepRunner:
    """Runs point functions, computing cache misses on one backend.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) computes in-process; more
        share one :class:`ProcessPoolBackend` until :meth:`close` (or the
        end of a ``with`` block).  Results are identical either way.
    cache:
        Optional :class:`ResultCache`.  Hits skip computation entirely.
    """

    def __init__(self, jobs: int = 1, cache: ResultCache | None = None):
        self.backend = backend_for(jobs)
        self.jobs = jobs
        self.cache = cache

    def close(self) -> None:
        """Release the backend's workers (idempotent)."""
        self.backend.close()

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def run(self, func: Callable[..., Any], **kwargs: Any) -> Any:
        """Evaluate a single point (with caching, never a worker pool)."""
        return self.map(func, [kwargs])[0]

    def map(
        self,
        func: Callable[..., Any],
        calls: Sequence[dict[str, Any]],
        *,
        on_result: Callable[[int, dict[str, Any], Any], None] | None = None,
    ) -> list[Any]:
        """Evaluate ``func(**call)`` for every call, in order.

        Cache hits are resolved first; remaining points run on
        :attr:`backend` in one :meth:`_execute` call.  Calls with
        the same :func:`point_key` are computed once and their value is
        shared by every position.  The returned list always lines up
        with ``calls``.

        ``on_result`` (when given) is invoked in the parent process as
        ``on_result(index, call_kwargs, result)`` for every point, in
        call order, after all results are assembled — cache hits
        included.  Experiment runners use it to write per-point trace
        artifacts without perturbing the values themselves.
        """
        calls = list(calls)
        results: list[Any] = [None] * len(calls)
        keys = [point_key(func, kwargs) for kwargs in calls]
        # positions still needing a value, grouped by key in first-seen order
        pending: dict[str, list[int]] = {}
        for i, key in enumerate(keys):
            if self.cache is not None:
                hit, value = self.cache.load(key)
                if hit:
                    results[i] = value
                    continue
            pending.setdefault(key, []).append(i)
        if pending:
            func_id = f"{func.__module__}.{func.__qualname__}"
            computed = self._execute(func, [calls[ix[0]] for ix in pending.values()])
            for (key, positions), value in zip(pending.items(), computed):
                for i in positions:
                    results[i] = value
                if self.cache is not None:
                    self.cache.store(
                        key,
                        value,
                        meta={"func": func_id, "kwargs": _canonical_kwargs(calls[positions[0]])},
                    )
        if on_result is not None:
            for i, kwargs in enumerate(calls):
                on_result(i, kwargs, results[i])
        return results

    def _execute(self, func: Callable[..., Any], calls: Sequence[dict[str, Any]]) -> list[Any]:
        """Compute the cache-missing points on :attr:`backend`, in order."""
        return self.backend.map(func, calls)
