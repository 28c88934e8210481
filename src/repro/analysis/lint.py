"""AST lint for simulator-code hazards.

The simulator's determinism and coherence guarantees rest on four
coding rules that nothing in Python enforces:

``KSR100`` — no wall-clock or stdlib randomness in simulator code.
    Inside ``sim/``, ``machine/``, ``ring/``, ``coherence/`` and
    ``sync/``, importing ``time``, ``random`` or ``datetime`` is
    forbidden: all randomness must come from the seeded sub-streams of
    :mod:`repro.util.rng`, and the only clock is the engine's.

``KSR101`` — coherence state is mutated only by the protocol.
    Calls that change a local cache's :class:`SubpageState`
    (``set_state``/``fill``/``invalidate``/``snarf``/``drop`` on a
    ``local_cache`` receiver, or writes into its ``_states`` table) are
    allowed only in ``coherence/protocol.py``, ``coherence/ops.py`` and
    ``memory/local_cache.py`` itself.  Anything else bypasses the
    directory bookkeeping and desynchronizes the machine.

``KSR102`` — no ``==``/``!=`` on simulated-time floats.
    Simulation timestamps are floats accumulated from fractional ring
    hops; exact equality is a latent bug.  Comparisons of time-named
    attributes (``now``, ``completed_at``, ...) must use ordering or a
    tolerance.

``KSR103`` — no ad-hoc RNG construction anywhere in the package.
    Constructing ``random.Random``/``random.SystemRandom`` or numpy's
    legacy ``RandomState`` creates an unnamed stream outside the
    seeded sub-stream registry; every generator must come through
    :mod:`repro.util.rng` (``SeedStream``/``derive_rng``) so runs stay
    a pure function of the master seed.  (``np.random.default_rng``
    with an explicit seed is fine — the rule targets the stateful
    legacy constructors.)  ``util/rng.py`` itself is exempt.

``KSR114`` — ring grant heaps are mutated only by the one grant site.
    A sub-ring's ``(free_time, slot)`` heap (the ``_free`` table of
    :class:`~repro.ring.slotted_ring.SlottedRing`) is replaced-into by
    ``SlottedRing._claim`` alone; the macro-event ``BatchAdvancer``
    calls that method too.  A ``heapreplace`` against ``_free`` anywhere
    else is a second copy of the grant arithmetic waiting to drift.

The pass is a heuristic AST walk.  Direct spellings and the
single-assignment alias (``cache = cell.local_cache; cache.fill(...)``,
``heap = self._free[subring]; heapreplace(heap, ...)``) are caught
here; longer alias chains (``a = cell.local_cache; b = a``) need real
dataflow and are covered by ``ksr-analyze flow`` (KSR111 in
:mod:`repro.analysis.flow.determinism`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

__all__ = ["LintViolation", "lint_source", "lint_paths", "repro_root"]

#: Packages whose modules count as simulator code (KSR100).
SIM_PACKAGES = ("sim", "machine", "ring", "coherence", "sync")
#: Packages where simulated-time equality is checked (KSR102).
TIME_EQ_PACKAGES = SIM_PACKAGES
#: Modules allowed to mutate SubpageState (KSR101), relative to repro/.
MUTATION_ALLOWED = frozenset(
    {"coherence/protocol.py", "coherence/ops.py", "memory/local_cache.py"}
)

FORBIDDEN_MODULES = frozenset({"time", "random", "datetime"})
#: Modules exempt from KSR103 (the RNG plumbing itself).
RNG_ALLOWED = frozenset({"util/rng.py"})
#: Constructors that mint an unregistered RNG stream (KSR103).
RNG_CONSTRUCTORS = frozenset({"Random", "SystemRandom", "RandomState"})
MUTATOR_METHODS = frozenset({"set_state", "fill", "invalidate", "snarf", "drop"})
TIME_ATTRS = frozenset(
    {
        "now",
        "_now",
        "time",
        "completed_at",
        "injected_at",
        "completes_at",
        "registered_at",
        "enqueued_at",
        "busy_until",
    }
)
TIME_NAMES = frozenset({"now"})
#: The grant-heap attribute guarded by KSR114.
GRANT_HEAP_ATTR = "_free"
#: The (class, method) sites that may ``heapreplace`` a grant heap
#: (KSR114): the slot claim every ring transaction goes through.
GRANT_HEAP_METHODS = frozenset({("SlottedRing", "_claim")})


@dataclass(frozen=True)
class LintViolation:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def _package_of(relpath: str) -> str:
    """First path component of a module path like ``machine/cell.py``."""
    return relpath.split("/", 1)[0] if "/" in relpath else ""


def _attr_chain(node: ast.expr) -> list[str]:
    """Names along an attribute chain, e.g. ``a.b.c()`` -> [a, b, c]."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return list(reversed(parts))


def _is_time_operand(node: ast.expr) -> Optional[str]:
    """The time-ish name a comparison operand exposes, if any."""
    if isinstance(node, ast.Attribute) and node.attr in TIME_ATTRS:
        return ".".join(_attr_chain(node))
    if isinstance(node, ast.Name) and node.id in TIME_NAMES:
        return node.id
    return None


class _Visitor(ast.NodeVisitor):
    def __init__(self, relpath: str):
        self.relpath = relpath
        package = _package_of(relpath)
        self.check_imports = package in SIM_PACKAGES
        self.check_mutation = relpath not in MUTATION_ALLOWED
        self.check_time_eq = package in TIME_EQ_PACKAGES
        self.check_rng = relpath not in RNG_ALLOWED
        #: Local aliases of RNG constructors (``from random import Random``).
        self._rng_names: set[str] = set()
        #: Names assigned directly from a ``*.local_cache`` chain
        #: (``cache = cell.local_cache``) — mutators through these are
        #: KSR101 violations too, closing the single-assignment evasion.
        self._cache_aliases: set[str] = set()
        #: Names assigned from a ``*._free[...]`` grant-heap lookup
        #: (``heap = self._free[subring]``) for KSR114.
        self._free_aliases: set[str] = set()
        #: Enclosing class names / function names, innermost last.
        self._class_stack: list[str] = []
        self._func_stack: list[str] = []
        self.violations: list[LintViolation] = []

    # -- scope tracking (KSR114) ----------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_func(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def _grant_heap_site(self) -> bool:
        """Whether the current scope may mutate a grant heap."""
        return any(
            cls in self._class_stack and fn in self._func_stack
            for cls, fn in GRANT_HEAP_METHODS
        )

    def _is_grant_heap(self, node: ast.expr) -> bool:
        """Whether an expression denotes a ``_free`` grant heap."""
        if isinstance(node, ast.Name):
            return node.id in self._free_aliases
        if isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Attribute) and node.attr == GRANT_HEAP_ATTR

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        self.violations.append(
            LintViolation(self.relpath, node.lineno, node.col_offset, code, message)
        )

    # KSR100 ------------------------------------------------------------

    def _check_import(self, node: ast.AST, module: Optional[str]) -> None:
        root = (module or "").split(".", 1)[0]
        if self.check_imports and root in FORBIDDEN_MODULES:
            self._flag(
                node,
                "KSR100",
                f"simulator code must not import '{root}': use "
                "repro.util.rng for randomness and the engine clock for time",
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_import(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0:  # relative imports can't reach the stdlib
            self._check_import(node, node.module)
        # KSR103 alias tracking: `from random import Random` (or
        # `from numpy.random import RandomState`) makes the bare name a
        # constructor call later in the module.
        if node.module and node.module.split(".")[-1] == "random":
            for alias in node.names:
                if alias.name in RNG_CONSTRUCTORS:
                    self._rng_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    # KSR101 ------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if (
            self.check_mutation
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_METHODS
        ):
            chain = _attr_chain(node.func)
            if "local_cache" in chain[:-1] or (
                len(chain) == 2 and chain[0] in self._cache_aliases
            ):
                self._flag(
                    node,
                    "KSR101",
                    f"SubpageState mutated outside the protocol: "
                    f"{'.'.join(chain)}() — only coherence/protocol.py, "
                    "coherence/ops.py and memory/local_cache.py may do this",
                )
        # KSR103 --------------------------------------------------------
        if self.check_rng:
            spelled = None
            func = node.func
            if isinstance(func, ast.Attribute):
                chain = _attr_chain(func)
                if chain[-1] in RNG_CONSTRUCTORS and "random" in chain[:-1]:
                    spelled = ".".join(chain)
            elif isinstance(func, ast.Name) and func.id in self._rng_names:
                spelled = func.id
            if spelled is not None:
                self._flag(
                    node,
                    "KSR103",
                    f"direct RNG construction '{spelled}(...)' — derive "
                    "generators from repro.util.rng (SeedStream/derive_rng) "
                    "so every stream is named and seeded",
                )
        # KSR114 --------------------------------------------------------
        func = node.func
        is_heapreplace = (isinstance(func, ast.Name) and func.id == "heapreplace") or (
            isinstance(func, ast.Attribute) and func.attr == "heapreplace"
        )
        if (
            is_heapreplace
            and node.args
            and self._is_grant_heap(node.args[0])
            and not self._grant_heap_site()
        ):
            self._flag(
                node,
                "KSR114",
                "heapreplace on a ring grant heap (_free) outside "
                "SlottedRing._claim — the grant arithmetic lives in "
                "exactly that one place",
            )
        self.generic_visit(node)

    def _check_states_store(self, target: ast.expr) -> None:
        if (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
            and target.value.attr == "_states"
        ):
            self._flag(
                target,
                "KSR101",
                "direct write into a local cache's _states table — "
                "mutate coherence state through the protocol instead",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        if self.check_mutation:
            for target in node.targets:
                self._check_states_store(target)
            # record `cache = <...>.local_cache` single-assignment aliases
            if (
                len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "local_cache"
            ):
                self._cache_aliases.add(node.targets[0].id)
        # record `heap = <...>._free[...]` grant-heap aliases (KSR114)
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and self._is_grant_heap(node.value)
            and not isinstance(node.value, ast.Name)
        ):
            self._free_aliases.add(node.targets[0].id)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self.check_mutation:
            self._check_states_store(node.target)
        self.generic_visit(node)

    # KSR102 ------------------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if self.check_time_eq:
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (left, right):
                    name = _is_time_operand(side)
                    if name is not None:
                        self._flag(
                            node,
                            "KSR102",
                            f"'==' on simulated-time float '{name}' — "
                            "times accumulate fractional cycles; compare "
                            "with ordering or a tolerance",
                        )
                        break
        self.generic_visit(node)


def lint_source(source: str, relpath: str) -> list[LintViolation]:
    """Lint one module's source.

    ``relpath`` is the module's path relative to the ``repro`` package
    root (e.g. ``"machine/cell.py"``); it selects which rules apply.
    """
    tree = ast.parse(source, filename=relpath)
    visitor = _Visitor(relpath.replace("\\", "/"))
    visitor.visit(tree)
    return visitor.violations


def repro_root() -> Path:
    """Directory of the installed ``repro`` package."""
    import repro

    return Path(repro.__file__).resolve().parent


def lint_paths(root: Path | None = None) -> list[LintViolation]:
    """Lint every module under ``root`` (default: the repro package)."""
    base = Path(root) if root is not None else repro_root()
    violations: list[LintViolation] = []
    for path in sorted(base.rglob("*.py")):
        relpath = path.relative_to(base).as_posix()
        violations.extend(lint_source(path.read_text(encoding="utf-8"), relpath))
    return violations


def render_report(violations: Iterable[LintViolation]) -> str:
    """One line per violation, stable order."""
    return "\n".join(str(v) for v in violations)
