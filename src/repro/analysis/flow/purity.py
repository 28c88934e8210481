"""KSR112 — cache-key purity.

:func:`repro.experiments.sweep.point_key` canonicalizes every kwarg
into the sweep-cache key; a type without a stable field-wise ``repr``
or an explicit ``cache_token`` raises ``TypeError`` at runtime (and,
worse, *almost*-stable reprs silently split or merge cache entries).
This pass finds every call that feeds kwargs into the cache key —
``SweepRunner.run(func, **kwargs)``, ``SweepRunner.map(func, calls)``,
an experiment plan's ``plan_of(func, calls, obs)``, the sizes of an
``Experiment(...)`` catalog entry and direct ``point_key(...)`` calls —
statically resolves the *type*
of each kwarg value, and flags types that fail
:meth:`repro.analysis.flow.program.Program.class_is_stable_key`.

Resolution is deliberately shallow and honest: constants, direct
constructor calls, locally assigned names, annotated parameters
(``plan: FaultPlan``, ``obs: ObsSpec | None``) and return annotations
of locally defined helpers.  Values it cannot resolve are *counted*
(``unresolved`` in the stats), never guessed at — the pass stays
silent rather than crying wolf.

For ``.map(func, calls)`` and ``plan_of`` the calls list is chased
through the local idioms the experiments actually use: a list literal
or comprehension of ``dict(...)`` / ``{...}`` elements,
``calls.append(dict(...))`` augmentation loops, ``call["key"] = value``
adornment loops, and a list a program helper builds that way and
returns (checked in the helper's own scope).
"""

from __future__ import annotations

import ast
import re
from typing import Any, Iterable, Optional

from repro.analysis.flow.findings import Finding
from repro.analysis.flow.program import FunctionInfo, Program

__all__ = ["purity_findings"]

#: Builtin / stdlib types with value-stable reprs.
_STABLE_BUILTINS = frozenset(
    {"int", "float", "bool", "str", "bytes", "complex", "tuple", "list", "dict", "None"}
)

#: Typing wrappers to see through when classifying annotations.
_TRANSPARENT = frozenset({"Optional", "Union", "Sequence", "Iterable", "List", "Tuple"})

_MAX_NAME_DEPTH = 4


def _annotation_names(text: str) -> list[str]:
    return re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text)


def _classify_annotation(program: Program, text: str) -> tuple[str, Optional[str]]:
    """('stable'|'unstable'|'unknown', offending class name or None)."""
    names = [n for n in _annotation_names(text) if n not in _TRANSPARENT]
    verdict = "stable"
    for name in names:
        if name in _STABLE_BUILTINS:
            continue
        known = program.class_is_stable_key(name)
        if known is True:
            continue
        if known is False:
            return "unstable", name
        verdict = "unknown"
    return verdict, None


class _Scope:
    """Local single-assignment bindings of one function body."""

    def __init__(self, body: list[ast.stmt]):
        self.assignments: dict[str, ast.expr] = {}
        self.appends: dict[str, list[ast.expr]] = {}
        self.adornments: dict[str, list[tuple[str, ast.expr]]] = {}
        self.loop_iters: dict[str, ast.expr] = {}
        self._collect(body)

    def _collect(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        self.assignments[target.id] = node.value
                    elif (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)
                    ):
                        # call["key"] = value — chased via the loop var
                        self.adornments.setdefault(target.value.id, []).append(
                            (target.slice.value, node.value)
                        )
                elif isinstance(node, ast.For) and isinstance(node.target, ast.Name):
                    self.loop_iters[node.target.id] = node.iter
                elif (
                    isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "append"
                    and isinstance(node.value.func.value, ast.Name)
                    and node.value.args
                ):
                    self.appends.setdefault(node.value.func.value.id, []).append(
                        node.value.args[0]
                    )


class _PurityPass:
    def __init__(self, program: Program):
        self.program = program
        self.findings: list[Finding] = []
        self.n_sites = 0
        self.n_kwargs = 0
        self.n_unresolved = 0

    # -- value classification -----------------------------------------

    def _classify_value(
        self,
        value: ast.expr,
        info: FunctionInfo,
        scope: _Scope,
        depth: int = 0,
    ) -> tuple[str, Optional[str]]:
        """('stable'|'unstable'|'unknown', offending class or None)."""
        if isinstance(value, ast.Constant):
            return "stable", None
        if isinstance(value, (ast.List, ast.Tuple)):
            worst = "stable"
            for elt in value.elts:
                v, cls = self._classify_value(elt, info, scope, depth + 1)
                if v == "unstable":
                    return v, cls
                if v == "unknown":
                    worst = "unknown"
            return worst, None
        if isinstance(value, ast.BinOp):
            return "stable", None  # arithmetic on kwargs yields numbers
        if isinstance(value, ast.IfExp):
            v1, c1 = self._classify_value(value.body, info, scope, depth + 1)
            v2, c2 = self._classify_value(value.orelse, info, scope, depth + 1)
            if "unstable" in (v1, v2):
                return "unstable", c1 or c2
            if "unknown" in (v1, v2):
                return "unknown", None
            return "stable", None
        if isinstance(value, ast.Call):
            return self._classify_call(value, info, scope)
        if isinstance(value, ast.Name):
            return self._classify_name(value.id, info, scope, depth)
        return "unknown", None

    def _classify_call(
        self, call: ast.Call, info: FunctionInfo, scope: _Scope
    ) -> tuple[str, Optional[str]]:
        func = call.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name is None:
            return "unknown", None
        if name in _STABLE_BUILTINS:
            return "stable", None
        known = self.program.class_is_stable_key(name)
        if known is not None:
            return ("stable" if known else "unstable"), (None if known else name)
        resolved = self.program.resolve_call(info.relpath, call)
        if resolved is not None and resolved.returns:
            return _classify_annotation(self.program, resolved.returns)
        return "unknown", None

    def _classify_name(
        self, name: str, info: FunctionInfo, scope: _Scope, depth: int
    ) -> tuple[str, Optional[str]]:
        if depth > _MAX_NAME_DEPTH:
            return "unknown", None
        ann = info.annotations.get(name)
        if ann is not None:
            return _classify_annotation(self.program, ann)
        assigned = scope.assignments.get(name)
        if assigned is not None:
            return self._classify_value(assigned, info, scope, depth + 1)
        loop_iter = scope.loop_iters.get(name)
        if loop_iter is not None:
            return self._classify_value(loop_iter, info, scope, depth + 1)
        return "unknown", None

    # -- call-site discovery ------------------------------------------

    def run(self) -> None:
        for info in self.program.functions_by_qualname.values():
            self._visit_body(info)
        for module in self.program.modules.values():
            # module-level statements (the experiment catalog) as one scope
            defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            body = [stmt for stmt in module.tree.body if not isinstance(stmt, defs)]
            node = ast.FunctionDef("<module>", ast.arguments([], [], None, [], [], None, []),
                                   body, [])
            self._visit_body(FunctionInfo("<module>", "<module>", module.relpath, node))

    def _visit_body(self, info: FunctionInfo) -> None:
        scope = _Scope(info.node.body)
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                self._visit_call(node, info, scope)

    def _visit_call(self, call: ast.Call, info: FunctionInfo, scope: _Scope) -> None:
        func = call.func
        if isinstance(func, ast.Name) and func.id == "point_key":
            self.n_sites += 1
            self._check_kwargs(call.keywords, call, info, scope)
            return
        if isinstance(func, ast.Name) and func.id == "plan_of" and len(call.args) >= 2:
            # plan_of(func, calls, obs): every call, each carrying obs
            self.n_sites += 1
            self._check_calls_list(call.args[1], call, info, scope)
            obs = call.args[2:] or [kw.value for kw in call.keywords if kw.arg == "obs"]
            for value in obs:
                self._check_one("obs", value, call, info, scope)
            return
        if isinstance(func, ast.Name) and func.id == "Experiment":
            # a catalog entry's sizes are the parameters of its plan
            self.n_sites += 1
            for kw in call.keywords:
                if kw.arg in ("default", "full", "quick"):
                    for key, value in self._dict_items(kw.value):
                        self._check_one(key, value, call, info, scope)
            return
        if not isinstance(func, ast.Attribute):
            return
        receiver_is_runner = self._runner_receiver(func.value, scope)
        if func.attr == "run" and receiver_is_runner:
            self.n_sites += 1
            self._check_kwargs(call.keywords, call, info, scope)
        elif func.attr == "map" and receiver_is_runner and len(call.args) >= 2:
            self.n_sites += 1
            self._check_calls_list(call.args[1], call, info, scope)

    def _runner_receiver(self, node: ast.expr, scope: _Scope) -> bool:
        """`runner.`, `args.runner.`, `self.runner.` or a local name
        constructed as ``SweepRunner(...)``."""
        if isinstance(node, ast.Attribute):
            return node.attr == "runner"
        if not isinstance(node, ast.Name):
            return False
        if node.id == "runner":
            return True
        assigned = scope.assignments.get(node.id)
        if isinstance(assigned, ast.Call):
            f = assigned.func
            cname = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            return cname == "SweepRunner"
        return False

    # -- kwarg checking ------------------------------------------------

    def _check_kwargs(
        self,
        keywords: list[ast.keyword],
        site: ast.Call,
        info: FunctionInfo,
        scope: _Scope,
    ) -> None:
        for kw in keywords:
            if kw.arg is None or kw.arg == "on_result":
                continue
            self._check_one(kw.arg, kw.value, site, info, scope)

    def _check_calls_list(
        self,
        calls_expr: ast.expr,
        site: ast.Call,
        info: FunctionInfo,
        scope: _Scope,
        depth: int = 0,
    ) -> None:
        built = self._helper_calls(calls_expr, info, scope)
        if built is not None and depth < _MAX_NAME_DEPTH:
            helper, returned = built
            self._check_calls_list(returned, site, helper, _Scope(helper.node.body), depth + 1)
            return
        for dict_expr, loop_var in self._resolve_calls(calls_expr, scope):
            for key, value in self._dict_items(dict_expr):
                self._check_one(key, value, site, info, scope)
            if loop_var is not None:
                for key, value in scope.adornments.get(loop_var, []):
                    self._check_one(key, value, site, info, scope)

    def _helper_calls(
        self, expr: ast.expr, info: FunctionInfo, scope: _Scope
    ) -> Optional[tuple[FunctionInfo, ast.expr]]:
        """``(helper, its returned list)`` when a program function builds ``expr``."""
        if isinstance(expr, ast.Name):
            expr = scope.assignments.get(expr.id)
        if not isinstance(expr, ast.Call):
            return None
        helper = self.program.resolve_call(info.relpath, expr)
        if helper is None:
            return None
        returned = [
            node.value
            for node in ast.walk(helper.node)
            if isinstance(node, ast.Return) and node.value is not None
        ]
        return (helper, returned[0]) if len(returned) == 1 else None

    def _resolve_calls(
        self, expr: ast.expr, scope: _Scope
    ) -> Iterable[tuple[ast.expr, Optional[str]]]:
        """Yield (per-point dict expression, adornment loop var)."""
        if isinstance(expr, ast.Name):
            name = expr.id
            # `for call in calls: call["obs"] = obs` adorns via this var
            loop_var = next(
                (
                    var
                    for var, it in scope.loop_iters.items()
                    if isinstance(it, ast.Name) and it.id == name
                ),
                None,
            )
            assigned = scope.assignments.get(name)
            if assigned is not None:
                for dict_expr, _ in self._resolve_calls(assigned, scope):
                    yield dict_expr, loop_var
            for appended in scope.appends.get(name, []):
                yield appended, loop_var
            return
        if isinstance(expr, ast.List):
            for elt in expr.elts:
                if isinstance(elt, ast.Name):
                    assigned = scope.assignments.get(elt.id)
                    if assigned is not None:
                        yield assigned, elt.id
                else:
                    yield elt, None
            return
        if isinstance(expr, ast.ListComp):
            yield expr.elt, None
            return
        if isinstance(expr, ast.Call):
            # list(generator) / iter(...) wrappers
            f = expr.func
            if isinstance(f, ast.Name) and f.id in ("list", "iter", "tuple") and expr.args:
                inner = expr.args[0]
                if isinstance(inner, ast.GeneratorExp):
                    yield inner.elt, None
                else:
                    yield from self._resolve_calls(inner, scope)

    def _dict_items(self, expr: ast.expr) -> list[tuple[str, ast.expr]]:
        if isinstance(expr, ast.Call):
            f = expr.func
            if isinstance(f, ast.Name) and f.id == "dict":
                return [(kw.arg, kw.value) for kw in expr.keywords if kw.arg is not None]
        if isinstance(expr, ast.Dict):
            return [
                (k.value, v)
                for k, v in zip(expr.keys, expr.values)
                if isinstance(k, ast.Constant) and isinstance(k.value, str)
            ]
        if isinstance(expr, ast.Name):
            return []  # handled by the caller through scope.assignments
        return []

    def _check_one(
        self,
        kwarg: str,
        value: ast.expr,
        site: ast.Call,
        info: FunctionInfo,
        scope: _Scope,
    ) -> None:
        self.n_kwargs += 1
        verdict, offender = self._classify_value(value, info, scope)
        if verdict == "unknown":
            self.n_unresolved += 1
            return
        if verdict == "stable":
            return
        module = self.program.modules.get(info.relpath)
        snippet = ""
        if module is not None:
            snippet = ast.get_source_segment(module.source, site) or ""
            snippet = snippet.splitlines()[0] if snippet else ""
        self.findings.append(
            Finding(
                rule="KSR112",
                path=info.relpath,
                line=site.lineno,
                col=site.col_offset,
                message=(
                    f"cache-key kwarg {kwarg!r} has type {offender} which defines "
                    f"neither a stable __repr__ nor a cache_token — point_key() "
                    f"will raise TypeError (or worse, key on the object address)"
                ),
                snippet=f"{snippet} :: {kwarg}",
                detail={"kwarg": kwarg, "type": offender},
            )
        )


def purity_findings(program: Program) -> tuple[list[Finding], dict[str, Any]]:
    """Run KSR112 over the program; returns (findings, stats)."""
    pass_ = _PurityPass(program)
    pass_.run()
    stats = {
        "call_sites": pass_.n_sites,
        "kwargs_checked": pass_.n_kwargs,
        "kwargs_unresolved": pass_.n_unresolved,
    }
    return pass_.findings, stats
