"""KSR100, KSR102, KSR103, KSR114 — the per-module lint rules.

Simulator coding rules that nothing in Python enforces, checked module
by module over the one :class:`~repro.analysis.flow.program.Program`
(``ksr-analyze lint`` selects them):

``KSR100`` — no wall-clock or stdlib randomness in simulator code.
    Inside ``sim/``, ``machine/``, ``ring/``, ``coherence/`` and
    ``sync/``, importing ``time``, ``random`` or ``datetime`` is
    forbidden: randomness comes from the seeded sub-streams of
    :mod:`repro.util.rng`, and the only clock is the engine's.
``KSR102`` — no ``==``/``!=`` on simulated-time floats in the same
    packages: timestamps accumulate fractional ring hops, so compare
    time-named attributes (``now``, ``completed_at``, ...) by ordering
    or with a tolerance.
``KSR103`` — no ad-hoc RNG construction anywhere but ``util/rng.py``:
    ``random.Random``/``SystemRandom`` or numpy's legacy
    ``RandomState`` (also as ``from random import Random as Rng``)
    mint a stream outside the seeded registry.  A seeded
    ``np.random.default_rng`` is fine.
``KSR114`` — a sub-ring's ``_free`` grant heap is replaced-into by
    ``SlottedRing._claim`` alone (the retry window of
    :class:`repro.ring.batch.BatchAdvancer` calls it per closed-form
    retry); a ``heapreplace`` on ``_free``, or on a local bound to it
    (``heap = self._free[subring]``), anywhere else is a second copy of
    the grant arithmetic.

Coherence-state mutation outside the protocol (once KSR101 here) is
KSR111 in :mod:`repro.analysis.flow.determinism`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.flow.findings import Finding
from repro.analysis.flow.program import Module, Program, attr_chain

__all__ = ["LINT_RULES", "lint_findings"]

#: The rules this module checks: the ``ksr-analyze lint`` selection.
LINT_RULES = frozenset({"KSR100", "KSR102", "KSR103", "KSR114"})

#: Packages whose modules count as simulator code (KSR100, KSR102).
SIM_PACKAGES = ("sim", "machine", "ring", "coherence", "sync")
FORBIDDEN_MODULES = frozenset({"time", "random", "datetime"})
#: Modules exempt from KSR103 (the RNG plumbing itself).
RNG_ALLOWED = frozenset({"util/rng.py"})
#: Constructors that mint an unregistered RNG stream (KSR103).
RNG_CONSTRUCTORS = frozenset({"Random", "SystemRandom", "RandomState"})
#: Attribute and bare names that hold simulated time (KSR102).
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
#: The (class, method) sites that may ``heapreplace`` a grant heap.
GRANT_HEAP_METHODS = frozenset({("SlottedRing", "_claim")})


def _is_grant_heap(node: ast.expr, aliases: set[str]) -> bool:
    """Whether an expression denotes a ``_free`` grant heap."""
    if isinstance(node, ast.Name):
        return node.id in aliases
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == GRANT_HEAP_ATTR


def _time_operand(node: ast.expr) -> str | None:
    """The time-ish name a comparison operand exposes, if any."""
    if isinstance(node, ast.Attribute) and node.attr in TIME_ATTRS:
        return ".".join(attr_chain(node))
    if isinstance(node, ast.Name) and node.id in TIME_NAMES:
        return node.id
    return None


def _module_findings(
    module: Module, grant_site: set[ast.AST]
) -> Iterator[tuple[ast.stmt | ast.expr, str, str]]:
    """(node, rule, message) for every lint violation in one module."""
    relpath = module.relpath
    sim = "/" in relpath and relpath.split("/", 1)[0] in SIM_PACKAGES
    rng_names: set[str] = set()  # `from random import Random as Rng`
    free_aliases: set[str] = set()  # `heap = self._free[subring]`
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "random":
            rng_names.update(
                a.asname or a.name for a in node.names if a.name in RNG_CONSTRUCTORS
            )
        elif (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and not isinstance(node.value, ast.Name)
            and _is_grant_heap(node.value, free_aliases)
        ):
            free_aliases.add(node.targets[0].id)

    for node in ast.walk(module.tree):
        if sim and isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:  # relative imports can't reach the stdlib
                names = [node.module or ""] if node.level == 0 else []
            for name in names:
                root = name.split(".", 1)[0]
                if root in FORBIDDEN_MODULES:
                    yield node, "KSR100", (
                        f"simulator code must not import '{root}': use "
                        "repro.util.rng for randomness and the engine clock for time"
                    )
        elif sim and isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                name = _time_operand(left) or _time_operand(right)
                if name is not None:
                    yield node, "KSR102", (
                        f"'==' on simulated-time float '{name}' — times "
                        "accumulate fractional cycles; compare with ordering "
                        "or a tolerance"
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            chain = attr_chain(func)
            spelled = None
            if isinstance(func, ast.Attribute):
                if chain[-1] in RNG_CONSTRUCTORS and "random" in chain[:-1]:
                    spelled = ".".join(chain)
            elif isinstance(func, ast.Name) and func.id in rng_names:
                spelled = func.id
            if spelled is not None and relpath not in RNG_ALLOWED:
                yield node, "KSR103", (
                    f"direct RNG construction '{spelled}(...)' — derive "
                    "generators from repro.util.rng (SeedStream/derive_rng) "
                    "so every stream is named and seeded"
                )
            if (
                chain[-1:] == ["heapreplace"]
                and node.args
                and _is_grant_heap(node.args[0], free_aliases)
                and node not in grant_site
            ):
                yield node, "KSR114", (
                    "heapreplace on a ring grant heap (_free) outside "
                    "SlottedRing._claim — the grant arithmetic lives in "
                    "exactly that one place"
                )


def lint_findings(program: Program) -> list[Finding]:
    """Run KSR100/102/103/114 over every module of the program."""
    grant_site = {
        node
        for info in program.functions_by_qualname.values()
        if (info.cls, info.name) in GRANT_HEAP_METHODS
        for node in ast.walk(info.node)
    }
    return [
        Finding(
            rule=rule,
            path=module.relpath,
            line=node.lineno,
            col=node.col_offset,
            message=message,
            snippet=ast.get_source_segment(module.source, node) or "",
        )
        for module in program.modules.values()
        for node, rule, message in _module_findings(module, grant_site)
    ]
