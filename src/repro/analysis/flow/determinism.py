"""KSR110/KSR111 — determinism dataflow and alias-aware mutation.

KSR110 tracks *nondeterminism sources* through assignments, container
construction, loops and (interprocedurally) function calls until one
reaches a *determinism sink* — a call whose arguments must be pure
functions of the experiment configuration and master seed:

* sources — wall-clock reads (``time.time`` & friends), unseeded RNGs
  (``random.*``, bare ``np.random.default_rng()``, ``os.urandom``,
  ``uuid.uuid4``, ``secrets.*``), address-dependent values (``id()``,
  salted builtin ``hash()``), and *iteration-order* sources (set
  displays, ``set()``/``frozenset()`` construction, unsorted
  ``os.listdir``/``glob``/``Path.iterdir`` listings);
* sinks — ``Engine.schedule``/``schedule_at``, ``point_key``, plus
  whatever each subsystem declares via ``__ksr_flow_sinks__``
  (see :mod:`repro.analysis.flow.program`);
* sanitizers — ``sorted``/``min``/``max``/``sum`` erase order taint
  (the value no longer depends on iteration order); ``len``/``any``/
  ``all``/``bool`` erase everything.

Taint is a set of *causes*; parameter causes make function summaries:
a function whose return carries a parameter's taint propagates its
callers' taint, and a function that passes a parameter into a sink
turns tainted call sites into findings.  Summaries are iterated to a
(small, bounded) fixpoint before the reporting pass.

KSR111 keeps coherence state the protocol's alone: outside
:data:`MUTATION_ALLOWED`, no code may call a :data:`MUTATOR_METHODS`
method on a local cache or write into a ``_states`` table, whether it
spells the cache directly (``cell.local_cache.fill(...)`` — the retired
KSR101) or through aliases of any length (``a = cell.local_cache;
b = a; b.fill(...)``, visible in nested functions too).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.analysis.flow.findings import Finding
from repro.analysis.flow.program import Program, attr_chain

__all__ = ["determinism_findings", "DEFAULT_SINKS"]

#: Built-in sink call names (last attribute of the callee); merged with
#: every ``__ksr_flow_sinks__`` declaration in the analyzed program.
DEFAULT_SINKS = frozenset({"schedule", "schedule_at", "point_key"})

#: callee chain suffixes that *produce* nondeterminism: (kind, reason).
_VALUE_SOURCES = {
    ("time", "time"): "wall-clock time.time()",
    ("time", "monotonic"): "wall-clock time.monotonic()",
    ("time", "perf_counter"): "wall-clock time.perf_counter()",
    ("time", "time_ns"): "wall-clock time.time_ns()",
    ("datetime", "now"): "wall-clock datetime.now()",
    ("datetime", "utcnow"): "wall-clock datetime.utcnow()",
    ("datetime", "today"): "wall-clock datetime.today()",
    ("date", "today"): "wall-clock date.today()",
    ("os", "urandom"): "os.urandom()",
    ("uuid", "uuid1"): "uuid.uuid1()",
    ("uuid", "uuid4"): "uuid.uuid4()",
}

_ORDER_SOURCE_ATTRS = {
    "listdir": "unsorted os.listdir()",
    "scandir": "unsorted os.scandir()",
    "iterdir": "unsorted Path.iterdir()",
    "glob": "unsorted glob()",
    "iglob": "unsorted iglob()",
    "rglob": "unsorted rglob()",
}

#: Calls that erase iteration-order dependence from their argument.
_ORDER_SANITIZERS = frozenset({"sorted", "min", "max", "sum"})
#: Calls whose result no longer depends on the argument's value at all
#: (cardinality / truthiness only).
_FULL_SANITIZERS = frozenset({"len", "any", "all", "bool"})

_MAX_SUMMARY_ROUNDS = 4

#: Modules allowed to mutate SubpageState (KSR111), relative to repro/.
MUTATION_ALLOWED = frozenset(
    {"coherence/protocol.py", "coherence/ops.py", "memory/local_cache.py"}
)
MUTATOR_METHODS = frozenset({"set_state", "fill", "invalidate", "snarf", "drop"})


@dataclass(frozen=True)
class _Cause:
    """One reason a value is suspect: a source or a parameter."""

    kind: str  # "value" | "order" | "param"
    reason: str
    line: int


Taint = frozenset  # of _Cause


@dataclass
class _Summary:
    """Interprocedural behaviour of one function."""

    ret: Taint = frozenset()
    #: Parameters whose taint flows to the return value.
    param_ret: frozenset = frozenset()
    #: Parameter name -> sink call name it reaches inside the body.
    param_sink: dict[str, str] = field(default_factory=dict)

    def signature(self) -> tuple:
        return (self.ret, self.param_ret, tuple(sorted(self.param_sink.items())))


def _source_cause(call: ast.Call) -> Optional[_Cause]:
    chain = attr_chain(call.func)
    if not chain:
        return None
    line = call.lineno
    if len(chain) >= 2 and (chain[-2], chain[-1]) in _VALUE_SOURCES:
        return _Cause("value", _VALUE_SOURCES[(chain[-2], chain[-1])], line)
    if chain[-1] in _ORDER_SOURCE_ATTRS:
        return _Cause("order", _ORDER_SOURCE_ATTRS[chain[-1]], line)
    if chain == ["id"]:
        return _Cause("value", "id() — address-dependent", line)
    if chain == ["hash"]:
        return _Cause("value", "builtin hash() — salted per process", line)
    if chain[-1] in ("set", "frozenset") and len(chain) == 1:
        return _Cause("order", f"{chain[-1]}() iteration order", line)
    if chain[0] == "random" and len(chain) == 2:
        return _Cause("value", f"stdlib random.{chain[1]}()", line)
    if chain[0] == "secrets":
        return _Cause("value", f"secrets.{chain[-1]}()", line)
    if chain[-1] == "default_rng" and not call.args and not call.keywords:
        return _Cause("value", "unseeded default_rng()", line)
    return None


class _FunctionFlow:
    """One pass of taint propagation over a single function body."""

    def __init__(
        self,
        analyzer: "_Analyzer",
        relpath: str,
        params: Iterable[str],
        *,
        report: bool,
    ):
        self.analyzer = analyzer
        self.relpath = relpath
        self.scope: dict[str, Taint] = {
            p: frozenset({_Cause("param", p, 0)}) for p in params
        }
        self.report = report
        self.ret: Taint = frozenset()
        self.param_sink: dict[str, str] = {}

    # -- expression taint ---------------------------------------------

    def taint_of(self, node: Optional[ast.expr]) -> Taint:
        if node is None:
            return frozenset()
        if isinstance(node, ast.Name):
            return self.scope.get(node.id, frozenset())
        if isinstance(node, ast.Call):
            return self._call_taint(node)
        if isinstance(node, ast.Set):
            inner = _union(self.taint_of(e) for e in node.elts)
            return inner | {_Cause("order", "set display iteration order", node.lineno)}
        if isinstance(node, ast.SetComp):
            return self._comp_taint(node, order_source=True)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._comp_taint(node, order_source=False)
        if isinstance(node, ast.DictComp):
            return self._comp_taint(node, order_source=False)
        if isinstance(node, ast.Attribute):
            return self.taint_of(node.value)
        if isinstance(node, ast.Subscript):
            return self.taint_of(node.value) | self.taint_of(
                node.slice if isinstance(node.slice, ast.expr) else None
            )
        if isinstance(node, ast.BinOp):
            return self.taint_of(node.left) | self.taint_of(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.taint_of(node.operand)
        if isinstance(node, ast.BoolOp):
            return _union(self.taint_of(v) for v in node.values)
        if isinstance(node, ast.IfExp):
            return self.taint_of(node.body) | self.taint_of(node.orelse)
        if isinstance(node, (ast.List, ast.Tuple)):
            return _union(self.taint_of(e) for e in node.elts)
        if isinstance(node, ast.Dict):
            return _union(self.taint_of(v) for v in node.values if v is not None)
        if isinstance(node, ast.JoinedStr):
            return _union(
                self.taint_of(v.value)
                for v in node.values
                if isinstance(v, ast.FormattedValue)
            )
        if isinstance(node, ast.Starred):
            return self.taint_of(node.value)
        if isinstance(node, ast.Compare):
            # comparisons and membership tests yield order-free booleans
            return frozenset()
        if isinstance(node, ast.Await):
            return self.taint_of(node.value)
        return frozenset()

    def _comp_taint(self, node: Any, *, order_source: bool) -> Taint:
        saved = dict(self.scope)
        taint: Taint = frozenset()
        for gen in node.generators:
            iter_taint = self.taint_of(gen.iter)
            for name in _target_names(gen.target):
                self.scope[name] = iter_taint
            taint |= iter_taint
        if isinstance(node, ast.DictComp):
            taint |= self.taint_of(node.key) | self.taint_of(node.value)
        else:
            taint |= self.taint_of(node.elt)
        self.scope = saved
        if order_source:
            taint = taint | {_Cause("order", "set comprehension iteration order", node.lineno)}
        return taint

    def _call_taint(self, node: ast.Call) -> Taint:
        arg_taints = [self.taint_of(a) for a in node.args]
        kw_taints = {kw.arg: self.taint_of(kw.value) for kw in node.keywords}
        combined = _union([*arg_taints, *kw_taints.values()])
        if isinstance(node.func, ast.Attribute):
            # method call: the receiver's taint flows into the result
            # (e.g. ``default_rng().random()``)
            combined |= self.taint_of(node.func.value)
        source = _source_cause(node)
        if source is not None:
            return combined | {source}
        chain = attr_chain(node.func)
        name = chain[-1] if chain else ""
        if name in _FULL_SANITIZERS:
            return frozenset()
        if name in _ORDER_SANITIZERS:
            return frozenset(c for c in combined if c.kind != "order")
        info = self.analyzer.resolve(self.relpath, node)
        if info is not None:
            summary = self.analyzer.summaries.get(info.qualname)
            if summary is not None:
                bound = self._bind_args(info, node, arg_taints, kw_taints)
                out = summary.ret
                for param, taint in bound.items():
                    if param in summary.param_ret:
                        out |= taint
                return out
        return combined

    def _bind_args(
        self,
        info: Any,
        node: ast.Call,
        arg_taints: list[Taint],
        kw_taints: dict[Optional[str], Taint],
    ) -> dict[str, Taint]:
        params = [a.arg for a in info.node.args.args]
        if params and params[0] == "self":
            params = params[1:]
        bound: dict[str, Taint] = {}
        for param, taint in zip(params, arg_taints):
            bound[param] = taint
        for kw, taint in kw_taints.items():
            if kw is not None and kw in params + [a.arg for a in info.node.args.kwonlyargs]:
                bound[kw] = taint
            elif kw is None:
                # **spread: attribute the taint to every remaining param
                for param in params:
                    bound.setdefault(param, frozenset())
                    bound[param] |= taint
        return bound

    # -- statements ----------------------------------------------------

    def run(self, body: list[ast.stmt]) -> None:
        # Two passes pick up loop-carried taint without a full fixpoint;
        # findings are recorded on the final pass only.
        report = self.report
        self.report = False
        self._block(body)
        self.report = report
        self._block(body)

    def _block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are analyzed as their own functions
        if isinstance(stmt, ast.Assign):
            taint = self.taint_of(stmt.value)
            for target in stmt.targets:
                self._assign_target(target, taint)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign_target(stmt.target, self.taint_of(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            taint = self.taint_of(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.scope[stmt.target.id] = (
                    self.scope.get(stmt.target.id, frozenset()) | taint
                )
        elif isinstance(stmt, ast.Return):
            self.ret |= self.taint_of(stmt.value)
        elif isinstance(stmt, ast.For):
            iter_taint = self.taint_of(stmt.iter)
            for name in _target_names(stmt.target):
                self.scope[name] = iter_taint
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                if item.optional_vars is not None:
                    for name in _target_names(item.optional_vars):
                        self.scope[name] = self.taint_of(item.context_expr)
            self._block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._block(stmt.body)
            for handler in stmt.handlers:
                self._block(handler.body)
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
        self._check_sinks(stmt)

    def _assign_target(self, target: ast.expr, taint: Taint) -> None:
        for name in _target_names(target):
            if taint:
                self.scope[name] = taint
            else:
                self.scope.pop(name, None)

    # -- sinks ---------------------------------------------------------

    def _check_sinks(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.For, ast.While, ast.If, ast.With, ast.Try)):
            exprs: list[ast.expr] = []
            if isinstance(stmt, ast.For):
                exprs = [stmt.iter]
            elif isinstance(stmt, (ast.While, ast.If)):
                exprs = [stmt.test]
            elif isinstance(stmt, ast.With):
                exprs = [item.context_expr for item in stmt.items]
            nodes: list[ast.AST] = []
            for e in exprs:
                nodes.extend(ast.walk(e))
        else:
            nodes = list(ast.walk(stmt))
        for node in nodes:
            if isinstance(node, ast.Call):
                self._check_sink_call(node)

    def _check_sink_call(self, call: ast.Call) -> None:
        chain = attr_chain(call.func)
        name = chain[-1] if chain else ""
        if name in self.analyzer.sink_names:
            for label, taint in self._call_arg_taints(call):
                self._sink_hit(call, name, label, taint)
            return
        info = self.analyzer.resolve(self.relpath, call)
        if info is None:
            return
        summary = self.analyzer.summaries.get(info.qualname)
        if summary is None or not summary.param_sink:
            return
        arg_taints = [self.taint_of(a) for a in call.args]
        kw_taints = {kw.arg: self.taint_of(kw.value) for kw in call.keywords}
        bound = self._bind_args(info, call, arg_taints, kw_taints)
        for param, taint in bound.items():
            sink = summary.param_sink.get(param)
            if sink is not None and taint:
                self._sink_hit(call, f"{info.name}→{sink}", param, taint)

    def _call_arg_taints(self, call: ast.Call) -> list[tuple[str, Taint]]:
        out = [(f"arg {i}", self.taint_of(a)) for i, a in enumerate(call.args)]
        out.extend(
            (kw.arg if kw.arg is not None else "**kwargs", self.taint_of(kw.value))
            for kw in call.keywords
        )
        return [(label, t) for label, t in out if t]

    def _sink_hit(self, call: ast.Call, sink: str, label: str, taint: Taint) -> None:
        real = [c for c in taint if c.kind != "param"]
        params = [c for c in taint if c.kind == "param"]
        for cause in params:
            self.param_sink.setdefault(cause.reason, sink)
        if not real or not self.report:
            return
        cause = sorted(real, key=lambda c: (c.line, c.reason))[0]
        module = self.analyzer.program.modules.get(self.relpath)
        snippet = ""
        if module is not None:
            snippet = ast.get_source_segment(module.source, call) or ""
        self.analyzer.findings.append(
            Finding(
                rule="KSR110",
                path=self.relpath,
                line=call.lineno,
                col=call.col_offset,
                message=(
                    f"nondeterministic value ({cause.reason}, line {cause.line}) "
                    f"reaches determinism sink {sink}() via {label}"
                ),
                snippet=snippet,
                detail={
                    "sink": sink,
                    "argument": label,
                    "causes": sorted(
                        f"{c.reason} (line {c.line})" for c in real
                    ),
                },
            )
        )


def _union(taints: Iterable[Taint]) -> Taint:
    out: Taint = frozenset()
    for t in taints:
        out |= t
    return out


def _target_names(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in target.elts:
            out.extend(_target_names(elt))
        return out
    return []


class _Analyzer:
    """Program-wide KSR110 driver: summaries to fixpoint, then report."""

    def __init__(self, program: Program):
        self.program = program
        self.sink_names = set(DEFAULT_SINKS)
        for decl in program.declared_sinks:
            self.sink_names.add(decl.rsplit(".", 1)[-1])
        self.summaries: dict[str, _Summary] = {}
        self.findings: list[Finding] = []

    def resolve(self, relpath: str, node: ast.Call):
        return self.program.resolve_call(relpath, node)

    def run(self) -> None:
        for round_no in range(_MAX_SUMMARY_ROUNDS):
            changed = False
            for info in self.program.functions_by_qualname.values():
                summary = self._summarize(info)
                old = self.summaries.get(info.qualname)
                if old is None or old.signature() != summary.signature():
                    self.summaries[info.qualname] = summary
                    changed = True
            if not changed:
                break
        self.findings = []
        for info in self.program.functions_by_qualname.values():
            self._analyze(info, report=True)
        for relpath, module in self.program.modules.items():
            flow = _FunctionFlow(self, relpath, params=(), report=True)
            flow.run(
                [s for s in module.tree.body if not isinstance(s, (ast.FunctionDef, ast.ClassDef))]
            )
        self.findings = list(dict.fromkeys(self.findings))

    def _params(self, info: Any) -> list[str]:
        args = info.node.args
        params = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]]
        if args.vararg is not None:
            params.append(args.vararg.arg)
        if args.kwarg is not None:
            params.append(args.kwarg.arg)
        return [p for p in params if p != "self"]

    def _analyze(self, info: Any, *, report: bool) -> _FunctionFlow:
        flow = _FunctionFlow(self, info.relpath, self._params(info), report=report)
        flow.run(info.node.body)
        return flow

    def _summarize(self, info: Any) -> _Summary:
        flow = self._analyze(info, report=False)
        ret_real = frozenset(c for c in flow.ret if c.kind != "param")
        param_ret = frozenset(c.reason for c in flow.ret if c.kind == "param")
        return _Summary(ret=ret_real, param_ret=param_ret, param_sink=flow.param_sink)


# ----------------------------------------------------------------------
# KSR111: alias-aware coherence-state mutation
# ----------------------------------------------------------------------


def _alias_findings(program: Program) -> list[Finding]:
    findings: list[Finding] = []
    for relpath, module in program.modules.items():
        if relpath not in MUTATION_ALLOWED:
            findings.extend(_alias_scan(relpath, module.source, module.tree.body, set()))
    return findings


def _scope_nodes(body: list[ast.stmt]) -> tuple[list[ast.AST], list[Any]]:
    """The nodes of one scope, and the function/class scopes nested in it.

    A nested definition's body is left to its own scan (its decorators,
    defaults and bases run here), so each node belongs to exactly one
    scope and is reported at most once.
    """
    nodes: list[ast.AST] = []
    nested: list[Any] = []
    stack: list[ast.AST] = list(reversed(body))
    while stack:
        node = stack.pop()
        children = list(ast.iter_child_nodes(node))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            nested.append(node)
            children = [c for c in children if not any(c is s for s in node.body)]
        else:
            nodes.append(node)
        stack.extend(reversed(children))
    return nodes, nested


def _alias_scan(
    relpath: str, source: str, body: list[ast.stmt], outer: set[str]
) -> list[Finding]:
    nodes, nested = _scope_nodes(body)
    aliases = set(outer)
    for node in nodes:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and _is_cache_expr(node.value, aliases):
                aliases.add(target.id)
    findings: list[Finding] = []
    for node in nodes:
        if isinstance(node, ast.Call):
            chain = attr_chain(node.func)
            if chain[-1:] and chain[-1] in MUTATOR_METHODS and (
                "local_cache" in chain[:-1] or (len(chain) >= 2 and chain[0] in aliases)
            ):
                findings.append(
                    _alias_finding(relpath, source, node, chain, f"{'.'.join(chain)}()")
                )
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if not isinstance(target, ast.Subscript):
                    continue
                chain = attr_chain(target.value)
                if (
                    isinstance(target.value, ast.Attribute) and target.value.attr == "_states"
                ) or (chain and chain[0] in aliases and "_states" in chain):
                    what = f"{'.'.join(chain)}[...] write"
                    findings.append(_alias_finding(relpath, source, target, chain, what))
    for scope in nested:
        findings.extend(_alias_scan(relpath, source, scope.body, aliases))
    return findings


def _is_cache_expr(node: ast.expr, aliases: set[str]) -> bool:
    """Does this expression denote a local cache (directly or via alias)?"""
    if isinstance(node, ast.Name):
        return node.id in aliases
    if isinstance(node, ast.Attribute):
        if node.attr == "local_cache":
            return True
        return _is_cache_expr(node.value, aliases)
    if isinstance(node, ast.Subscript):
        return _is_cache_expr(node.value, aliases)
    return False


def _alias_finding(
    relpath: str, source: str, node: ast.AST, chain: list[str], what: str
) -> Finding:
    snippet = ast.get_source_segment(source, node) or what
    return Finding(
        rule="KSR111",
        path=relpath,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        message=(
            f"SubpageState mutated outside the protocol: {what} — only "
            "coherence/protocol.py, coherence/ops.py and "
            "memory/local_cache.py may do this"
        ),
        snippet=snippet,
        detail={"alias": chain[0] if chain else "", "mutation": what},
    )


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def determinism_findings(program: Program) -> tuple[list[Finding], dict[str, Any]]:
    """Run KSR110 + KSR111 over the program; returns (findings, stats)."""
    analyzer = _Analyzer(program)
    analyzer.run()
    findings = list(analyzer.findings)
    findings.extend(_alias_findings(program))
    stats = {
        "functions_analyzed": len(program.functions_by_qualname),
        "modules": len(program.modules),
        "sinks": sorted(analyzer.sink_names),
        "summaries_with_param_sinks": sum(
            1 for s in analyzer.summaries.values() if s.param_sink
        ),
    }
    return findings, stats
