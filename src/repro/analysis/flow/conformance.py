"""KSR113 — protocol/model transition-relation conformance.

Two extractions of the same object, compared valuation by valuation:

* **Code relation** — a symbolic mini-interpreter walks the AST of
  ``coherence/protocol.py``'s entry points (``acquire_shared``,
  ``acquire_exclusive`` twice — once per ``atomic`` binding —
  ``release_subpage``, ``poststore``), evaluating branch conditions
  over a small propositional abstraction of the directory entry
  (:mod:`repro.analysis.flow.facts`) and recording the *directory
  calls* each feasible path performs.  Helper methods (``_fill``,
  ``_finish_shared_fill``, ``_invalidate_others``,
  ``_snarf_placeholders``) and scheduled continuations
  (``_complete_poststore``) are inlined; conditions outside the
  abstraction (combiner joins, in-flight prefetches, config flags)
  fork both ways unconstrained.
* **Model relation** — the abstract :class:`CoherenceModel` of
  :mod:`repro.analysis.modelcheck` is *executed*: BFS over its
  reachable states with a recording :class:`Directory` subclass
  captures, for every (action, abstract pre-state) pair, exactly which
  directory transitions the model performs and the actor's resulting
  state.

A transition is keyed by ``(op, valuation)`` where the valuation
assigns the seven guard atoms (``atomic``, ``owner_is_actor``,
``owner_exists``, ``has_valid``, ``created``, ``placeholders``,
``actor_valid``).  Conformance requires, for every valuation the model
reaches: the model's (outcome, directory actions) is realized by some
feasible code path, and no feasible non-identity code path deviates
from it.  Divergences become KSR113 findings whose counterexample
names the op, the guard valuation, and both sides' transitions.

Known extractor limits (documented in DESIGN §12): placeholder
snarfing mutates directory entries in place on both sides and is not
part of the compared action vocabulary; eviction (``evict``) concerns
*other* subpages inside ``_fill``'s replacement loop and is checked by
the model alone; valuations the abstract model never reaches (e.g.
shared copies coexisting with un-snarfed place-holders) are reported
as coverage, not failures.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Any, Optional

from repro.analysis.flow.facts import AND, NOT, OR, Env, Formula, FALSE, TRUE, lit
from repro.analysis.flow.findings import Finding
from repro.analysis.flow.program import attr_chain, repro_root
from repro.coherence.directory import Directory, DirectoryEntry
from repro.errors import ReproError

__all__ = [
    "ATOMS",
    "OPS",
    "ExtractionError",
    "Transition",
    "CodeRelation",
    "extract_code_relation",
    "extract_model_relation",
    "conformance_findings",
]


class ExtractionError(ReproError):
    """The extractor could not build a coherent transition relation."""


#: Guard atoms, in valuation order.
ATOMS = (
    "atomic",
    "owner_is_actor",
    "owner_exists",
    "has_valid",
    "created",
    "placeholders",
    "actor_valid",
)

#: Ops compared between code and model (the model's ``evict`` is out of
#: scope — see the module docstring).
OPS = ("read", "write", "gsp", "rsp", "poststore")

#: (op, protocol method, concrete parameter bindings).
_OP_BINDINGS = {
    "read": ("acquire_shared", {}),
    "write": ("acquire_exclusive", {"atomic": False}),
    "gsp": ("acquire_exclusive", {"atomic": True}),
    "rsp": ("release_subpage", {}),
    "poststore": ("poststore", {}),
}

#: Directory methods whose calls are the compared action vocabulary.
_DIRECTORY_EFFECTS = frozenset(
    {
        "record_fill_shared",
        "record_fill_exclusive",
        "demote_owner",
        "invalidate_others",
        "set_atomic",
        "drop_copy",
    }
)

#: Protocol helpers inlined by the symbolic interpreter.
_INLINE_METHODS = frozenset(
    {
        "_fill",
        "_finish_shared_fill",
        "_invalidate_others",
        "_snarf_placeholders",
        "_complete_poststore",
    }
)

_MAX_INLINE_DEPTH = 10

Valuation = tuple[bool, ...]
Effect = tuple[Any, ...]
OutcomeEffects = tuple[str, tuple[Effect, ...]]


@dataclass(frozen=True)
class Transition:
    """One guarded transition, as reported in counterexamples."""

    op: str
    guard: tuple[tuple[str, bool], ...]
    outcome: str
    effects: tuple[Effect, ...]

    def describe(self) -> str:
        """Human-readable one-liner naming guard, outcome and actions."""
        guard = " ∧ ".join(("" if v else "¬") + a for a, v in self.guard)
        acts = ", ".join(
            e[0] + (f"({e[1]})" if len(e) > 1 else "") for e in self.effects
        )
        return f"{self.op}[{guard}] -> {self.outcome} via [{acts or 'no directory action'}]"


def _implies(a: str, b: str) -> Formula:
    return OR(lit(a, False), lit(b, True))


def _domain_formula() -> Formula:
    return AND(
        _implies("atomic", "owner_exists"),
        _implies("owner_is_actor", "owner_exists"),
        _implies("owner_exists", "has_valid"),
        _implies("has_valid", "created"),
        _implies("placeholders", "created"),
        _implies("owner_is_actor", "actor_valid"),
        _implies("actor_valid", "has_valid"),
        # an exclusive owner is the sole valid holder
        OR(lit("actor_valid", False), lit("owner_exists", False), lit("owner_is_actor", True)),
    )


def _precondition(op: str) -> Formula:
    """Mirror of ``CoherenceModel.enabled``: where the op is meaningful
    (identity re-requests and atomically blocked requests excluded)."""
    if op == "read":
        return AND(NOT(lit("actor_valid")), NOT(lit("atomic")))
    if op == "write":
        return AND(NOT(lit("owner_is_actor")), NOT(lit("atomic")))
    if op == "gsp":
        return NOT(lit("atomic"))
    if op == "rsp":
        return AND(lit("atomic"), lit("owner_is_actor"))
    if op == "poststore":
        return AND(lit("owner_is_actor"), NOT(lit("atomic")))
    raise ExtractionError(f"unknown op {op!r}")


def _eval_formula(f: Formula, v: dict[str, bool]) -> bool:
    if f.kind == "true":
        return True
    if f.kind == "false":
        return False
    if f.kind == "lit":
        return v[f.atom] == f.value
    if f.kind == "and":
        return all(_eval_formula(p, v) for p in f.parts)
    return any(_eval_formula(p, v) for p in f.parts)


def op_valuations(op: str) -> list[Valuation]:
    """Complete guard valuations in the op's domain."""
    domain = _domain_formula()
    precond = _precondition(op)
    out: list[Valuation] = []
    for bits in product((False, True), repeat=len(ATOMS)):
        v = dict(zip(ATOMS, bits))
        if _eval_formula(domain, v) and _eval_formula(precond, v):
            out.append(bits)
    return out


# ----------------------------------------------------------------------
# Code-side extraction: a symbolic mini-interpreter over protocol.py
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Frame:
    """Per-inlining scope: which names mean what inside one method."""

    actor: str
    entry_vars: frozenset[str] = frozenset()
    concrete: tuple[tuple[str, Any], ...] = ()
    depth: int = 0

    def lookup(self, name: str) -> Any:
        for key, value in self.concrete:
            if key == name:
                return value
        return _UNBOUND

    def bind(self, name: str, value: Any) -> "_Frame":
        return replace(self, concrete=((name, value), *self.concrete))

    def with_entry(self, name: str) -> "_Frame":
        return replace(self, entry_vars=self.entry_vars | {name})


_UNBOUND = object()


@dataclass
class _Path:
    """One symbolic execution path through an op's call tree."""

    env: Env
    pre: Env
    frame: _Frame
    dirty: frozenset[str] = frozenset()
    effects: tuple[Effect, ...] = ()
    outcome: Optional[str] = None
    #: "blocked" | "error" | "composite" | None
    marker: Optional[str] = None
    finished: bool = False
    #: Local function definitions visible on this path (shared dict —
    #: function defs are unconditional in the analyzed code).
    local_funcs: dict[str, ast.FunctionDef] = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        return self.marker is not None

    def fork(self) -> "_Path":
        return replace(self, local_funcs=dict(self.local_funcs))


#: env transfer per directory effect: (atoms forgotten, assumption builder)
def _transfer(path: _Path, effect_name: str, arg: Any) -> _Path:
    forget: tuple[str, ...]
    assume: Optional[Formula] = None
    if effect_name == "demote_owner":
        forget = ("owner_exists", "owner_is_actor", "atomic")
        assume = AND(NOT(lit("owner_exists")), NOT(lit("owner_is_actor")), NOT(lit("atomic")))
    elif effect_name == "record_fill_shared":
        forget = ATOMS
        assume = AND(
            NOT(lit("owner_exists")),
            NOT(lit("owner_is_actor")),
            NOT(lit("atomic")),
            lit("has_valid"),
            lit("created"),
            lit("actor_valid"),
        )
    elif effect_name == "record_fill_exclusive":
        forget = ATOMS
        assume = AND(
            lit("owner_exists"),
            lit("owner_is_actor"),
            lit("actor_valid"),
            lit("has_valid"),
            lit("created"),
            lit("atomic", bool(arg)),
        )
    elif effect_name == "set_atomic":
        forget = ("atomic",)
        assume = lit("atomic", bool(arg))
    elif effect_name == "invalidate_others":
        forget = ("owner_exists", "owner_is_actor", "atomic", "has_valid", "actor_valid", "placeholders")
    elif effect_name == "drop_copy":
        forget = ("owner_exists", "owner_is_actor", "atomic", "has_valid", "actor_valid", "placeholders")
    else:  # pragma: no cover - guarded by caller
        raise ExtractionError(f"no transfer for {effect_name}")
    env = path.env.forget(forget)
    if assume is not None:
        assumed = env.assume(assume)
        env = assumed if assumed is not None else env
    return replace(path, env=env, dirty=path.dirty | set(forget))


def _record_effect(path: _Path, name: str, arg: Any) -> _Path:
    effect: Effect = (name, arg) if name in ("record_fill_exclusive", "set_atomic") else (name,)
    outcome = path.outcome
    if name == "record_fill_shared":
        outcome = "SHARED"
    elif name == "record_fill_exclusive":
        outcome = "ATOMIC" if arg else "EXCLUSIVE"
    elif name == "set_atomic":
        outcome = "ATOMIC" if arg else "EXCLUSIVE"
    elif name == "demote_owner":
        # demoting *the actor's own* copy (poststore) yields SHARED; a
        # responding owner's demotion does not touch the actor state.
        determined = path.env.determined(["owner_is_actor"])
        if determined.get("owner_is_actor") is True:
            outcome = "SHARED"
    path = replace(path, effects=path.effects + (effect,), outcome=outcome)
    return _transfer(path, name, arg)


class _ProtocolExtractor:
    """Symbolically executes one protocol entry point per op."""

    def __init__(self, source: str, path: str):
        self.source = source
        self.path = path
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise ExtractionError(f"unparsable protocol source: {exc}") from exc
        self.cls: Optional[ast.ClassDef] = None
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "CoherenceProtocol":
                self.cls = node
        if self.cls is None:
            raise ExtractionError(f"{path}: class CoherenceProtocol not found")
        self.methods: dict[str, ast.FunctionDef] = {
            item.name: item for item in self.cls.body if isinstance(item, ast.FunctionDef)
        }

    # -- concrete evaluation ------------------------------------------

    def _concrete(self, node: ast.expr, frame: _Frame) -> Any:
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            return frame.lookup(node.id)
        if isinstance(node, ast.Attribute):
            # SubpageState.SHARED and friends become enum-name tokens.
            if isinstance(node.value, ast.Name) and node.value.id == "SubpageState":
                return ("enum", node.attr)
            return _UNBOUND
        if isinstance(node, ast.IfExp):
            test = self._concrete(node.test, frame)
            if test is _UNBOUND:
                return _UNBOUND
            return self._concrete(node.body if test else node.orelse, frame)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            inner = self._concrete(node.operand, frame)
            if inner is _UNBOUND:
                return _UNBOUND
            return not inner
        return _UNBOUND

    # -- formula translation ------------------------------------------

    def _entry_attr(self, node: ast.expr, frame: _Frame) -> Optional[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in frame.entry_vars
        ):
            return node.attr
        return None

    _ATTR_ATOMS = {
        "atomic": "atomic",
        "has_valid_copy": "has_valid",
        "created": "created",
        "placeholders": "placeholders",
        "placeholder_mask": "placeholders",
    }

    def _formula(self, node: ast.expr, frame: _Frame) -> Optional[Formula]:
        """Translate a branch condition; ``None`` when outside the
        abstraction (the caller forks both ways, unconstrained)."""
        if isinstance(node, ast.BoolOp):
            parts = [self._formula(v, frame) for v in node.values]
            if isinstance(node.op, ast.And):
                if any(p is not None and p.kind == "false" for p in parts):
                    return FALSE
                if any(p is None for p in parts):
                    return None
                return AND(*[p for p in parts if p is not None])
            if any(p is not None and p.kind == "true" for p in parts):
                return TRUE
            if any(p is None for p in parts):
                return None
            return OR(*[p for p in parts if p is not None])
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            inner = self._formula(node.operand, frame)
            return None if inner is None else NOT(inner)
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            return self._compare_formula(node, frame)
        attr = self._entry_attr(node, frame)
        if attr in self._ATTR_ATOMS:
            return lit(self._ATTR_ATOMS[attr])
        value = self._concrete(node, frame)
        if value is True:
            return TRUE
        if value is False:
            return FALSE
        return None

    def _compare_formula(self, node: ast.Compare, frame: _Frame) -> Optional[Formula]:
        left, op, right = node.left, node.ops[0], node.comparators[0]
        # entry.owner ==/!=/is/is-not (actor | None)
        for a, b in ((left, right), (right, left)):
            if self._entry_attr(a, frame) == "owner":
                if isinstance(b, ast.Constant) and b.value is None:
                    if isinstance(op, (ast.Is, ast.Eq)):
                        return NOT(lit("owner_exists"))
                    if isinstance(op, (ast.IsNot, ast.NotEq)):
                        return lit("owner_exists")
                if isinstance(b, ast.Name) and b.id == frame.actor:
                    if isinstance(op, (ast.Eq, ast.Is)):
                        return lit("owner_is_actor")
                    if isinstance(op, (ast.NotEq, ast.IsNot)):
                        return NOT(lit("owner_is_actor"))
                return None
        # concrete identity tests, e.g. `state is SubpageState.SHARED`
        lv, rv = self._concrete(left, frame), self._concrete(right, frame)
        if lv is not _UNBOUND and rv is not _UNBOUND:
            if isinstance(op, (ast.Is, ast.Eq)):
                return TRUE if lv == rv else FALSE
            if isinstance(op, (ast.IsNot, ast.NotEq)):
                return TRUE if lv != rv else FALSE
        return None

    # -- statement execution ------------------------------------------

    def run_op(self, op: str) -> list[_Path]:
        method_name, bindings = _OP_BINDINGS[op]
        method = self.methods.get(method_name)
        if method is None:
            raise ExtractionError(f"{self.path}: method {method_name} not found")
        actor = self._actor_param(method)
        frame = _Frame(actor=actor)
        for name, value in bindings.items():
            frame = frame.bind(name, value)
        base = Env().assume(AND(_domain_formula(), _precondition(op)))
        if base is None:  # pragma: no cover - domain is satisfiable
            raise ExtractionError(f"unsatisfiable domain for op {op}")
        path = _Path(env=base, pre=base, frame=frame)
        return self._exec_block(method.body, [path])

    @staticmethod
    def _actor_param(method: ast.FunctionDef) -> str:
        names = [a.arg for a in method.args.args if a.arg != "self"]
        if not names or names[0] != "cell_id":
            raise ExtractionError(
                f"{method.name}: expected leading 'cell_id' parameter, have {names[:1]}"
            )
        return "cell_id"

    def _exec_block(self, stmts: list[ast.stmt], paths: list[_Path]) -> list[_Path]:
        done: list[_Path] = []
        live = list(paths)
        for stmt in stmts:
            if not live:
                break
            next_live: list[_Path] = []
            for path in live:
                for out in self._exec_stmt(stmt, path):
                    if out.terminal or out.finished:
                        done.append(out)
                    else:
                        next_live.append(out)
            live = next_live
        return done + live

    def _exec_stmt(self, stmt: ast.stmt, path: _Path) -> list[_Path]:
        if isinstance(stmt, ast.If):
            return self._exec_if(stmt, path)
        if isinstance(stmt, ast.Return):
            return [replace(path, finished=True)]
        if isinstance(stmt, ast.Raise):
            return [replace(path, marker="error", finished=True)]
        if isinstance(stmt, ast.FunctionDef):
            path.local_funcs[stmt.name] = stmt
            return [path]
        if isinstance(stmt, ast.Assign):
            return self._exec_assign(stmt, path)
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            return self._exec_call(stmt.value, path)
        # For/While bodies concern other subpages (eviction loops) or
        # local caches (snarf revalidation): no directory effects on the
        # subpage under analysis — skipped by design.
        return [path]

    def _exec_if(self, stmt: ast.If, path: _Path) -> list[_Path]:
        f = self._formula(stmt.test, path.frame)
        out: list[_Path] = []
        if f is None:
            out.extend(self._exec_block(stmt.body, [path.fork()]))
            out.extend(self._exec_block(stmt.orelse, [path.fork()]))
            return out
        for formula, block in ((f, stmt.body), (NOT(f), stmt.orelse)):
            env = path.env.assume(formula)
            if env is None:
                continue
            branch = replace(path.fork(), env=env)
            atoms = _formula_atoms(formula)
            if not (atoms & branch.dirty):
                pre = branch.pre.assume(formula)
                if pre is None:
                    continue
                branch = replace(branch, pre=pre)
            out.extend(self._exec_block(block, [branch]))
        return out

    def _exec_assign(self, stmt: ast.Assign, path: _Path) -> list[_Path]:
        target = stmt.targets[0] if len(stmt.targets) == 1 else None
        name = target.id if isinstance(target, ast.Name) else None
        value = stmt.value
        if isinstance(value, ast.Call):
            chain = attr_chain(value.func)
            if name is not None and chain[-1:] == ["entry"] and "directory" in chain:
                return [replace(path, frame=path.frame.with_entry(name))]
            if chain and chain[-1] in _DIRECTORY_EFFECTS and "directory" in chain:
                return [self._directory_effect(value, path)]
            # other calls (transact, state_of, try_join, ...) are opaque
            return [path]
        if name is not None:
            concrete = self._concrete(value, path.frame)
            if concrete is not _UNBOUND:
                return [replace(path, frame=path.frame.bind(name, concrete))]
        return [path]

    def _exec_call(self, call: ast.Call, path: _Path) -> list[_Path]:
        chain = attr_chain(call.func)
        if not chain:
            return [path]
        last = chain[-1]
        if last in _DIRECTORY_EFFECTS and "directory" in chain[:-1]:
            return [self._directory_effect(call, path)]
        if chain[0] == "self":
            if last == "_block_on_atomic":
                return [replace(path, marker="blocked", finished=True)]
            if last in ("acquire_shared", "acquire_exclusive", "get_subpage"):
                return [replace(path, marker="composite", finished=True)]
            if last in _INLINE_METHODS:
                return self._inline(last, call.args, call.keywords, path)
            if last in ("schedule", "schedule_at") and len(call.args) >= 2:
                cb = call.args[1]
                cb_chain = attr_chain(cb)
                if (
                    len(cb_chain) == 2
                    and cb_chain[0] == "self"
                    and cb_chain[1] in _INLINE_METHODS
                ):
                    return self._inline(cb_chain[1], call.args[2:], [], path)
                return [path]
        if isinstance(call.func, ast.Name) and call.func.id in path.local_funcs:
            local = path.local_funcs[call.func.id]
            return self._exec_block(local.body, [path.fork()])
        return [path]

    def _directory_effect(self, call: ast.Call, path: _Path) -> _Path:
        name = attr_chain(call.func)[-1]
        arg: Any = None
        if name == "set_atomic":
            if len(call.args) >= 3:
                arg = self._concrete(call.args[2], path.frame)
            if arg is _UNBOUND:
                raise ExtractionError(f"{self.path}: set_atomic flag not statically known")
        elif name == "record_fill_exclusive":
            arg = False
            for kw in call.keywords:
                if kw.arg == "atomic":
                    arg = self._concrete(kw.value, path.frame)
            if arg is _UNBOUND:
                raise ExtractionError(
                    f"{self.path}: record_fill_exclusive atomic= not statically known"
                )
        return _record_effect(path, name, arg)

    def _inline(
        self,
        name: str,
        args: list[ast.expr],
        keywords: list[ast.keyword],
        path: _Path,
    ) -> list[_Path]:
        if path.frame.depth >= _MAX_INLINE_DEPTH:
            raise ExtractionError(f"inline depth exceeded at {name}")
        method = self.methods.get(name)
        if method is None:
            return [path]
        params = [a.arg for a in method.args.args if a.arg != "self"]
        defaults = method.args.defaults
        callee = _Frame(actor="\0none", depth=path.frame.depth + 1)
        # positional defaults for trailing params
        for param, default in zip(params[len(params) - len(defaults):], defaults):
            value = self._concrete(default, path.frame)
            if value is not _UNBOUND:
                callee = callee.bind(param, value)
        for kwarg in method.args.kwonlyargs:
            callee_defaults = dict(
                zip(
                    [a.arg for a in method.args.kwonlyargs],
                    method.args.kw_defaults,
                )
            )
            default = callee_defaults.get(kwarg.arg)
            if default is not None:
                value = self._concrete(default, path.frame)
                if value is not _UNBOUND:
                    callee = callee.bind(kwarg.arg, value)
        all_params = params + [a.arg for a in method.args.kwonlyargs]
        for param, arg in zip(params, args):
            callee = self._bind_arg(callee, param, arg, path.frame)
        for kw in keywords:
            if kw.arg in all_params:
                callee = self._bind_arg(callee, kw.arg, kw.value, path.frame)
        saved = path.frame
        inner = replace(path, frame=callee)
        results = self._exec_block(method.body, [inner])
        out: list[_Path] = []
        for r in results:
            if r.terminal:
                out.append(r)
            else:
                out.append(replace(r, finished=False, frame=saved))
        return out

    def _bind_arg(self, callee: _Frame, param: str, arg: ast.expr, caller: _Frame) -> _Frame:
        if isinstance(arg, ast.Name) and arg.id == caller.actor:
            return replace(callee, actor=param)
        value = self._concrete(arg, caller)
        if value is not _UNBOUND:
            return callee.bind(param, value)
        return callee

    def op_location(self, op: str) -> tuple[int, int, str]:
        method_name, _ = _OP_BINDINGS[op]
        node = self.methods[method_name]
        snippet = ast.get_source_segment(self.source, node) or method_name
        # hash only the signature line: the whole body would churn the
        # baseline on every edit, defeating span-hash stability
        first_line = snippet.splitlines()[0] if snippet else method_name
        return node.lineno, node.col_offset, first_line


def _formula_atoms(f: Formula) -> set[str]:
    if f.kind == "lit":
        return {f.atom}
    out: set[str] = set()
    for p in f.parts:
        out |= _formula_atoms(p)
    return out


def _clauses_satisfied(env: Env, v: dict[str, bool]) -> bool:
    return all(any(v[a] == val for a, val in clause) for clause in env.clauses)


@dataclass
class CodeRelation:
    """The protocol's extracted relation, indexed for the diff."""

    #: (op, valuation) -> set of (outcome, effects) across feasible paths.
    transitions: dict[tuple[str, Valuation], frozenset[OutcomeEffects]]
    #: op -> (line, col, signature snippet) for findings.
    op_locations: dict[str, tuple[int, int, str]]
    #: op -> number of symbolic paths explored.
    n_paths: dict[str, int]
    path: str

    def lookup(self, op: str, valuation: Valuation) -> frozenset[OutcomeEffects]:
        """Feasible (outcome, effects) pairs at one guard valuation."""
        return self.transitions.get((op, valuation), frozenset())


def _default_protocol_source() -> tuple[str, str]:
    path = repro_root() / "coherence" / "protocol.py"
    return path.read_text(encoding="utf-8"), "coherence/protocol.py"


def extract_code_relation(
    source: Optional[str] = None, path: str = "coherence/protocol.py"
) -> CodeRelation:
    """Extract the guarded transition relation from protocol source."""
    if source is None:
        source, path = _default_protocol_source()
    extractor = _ProtocolExtractor(source, path)
    transitions: dict[tuple[str, Valuation], set[OutcomeEffects]] = {}
    n_paths: dict[str, int] = {}
    locations: dict[str, tuple[int, int, str]] = {}
    for op in OPS:
        paths = extractor.run_op(op)
        n_paths[op] = len(paths)
        locations[op] = extractor.op_location(op)
        for valuation in op_valuations(op):
            v = dict(zip(ATOMS, valuation))
            bucket = transitions.setdefault((op, valuation), set())
            for p in paths:
                if p.marker == "composite":
                    continue
                if not _clauses_satisfied(p.pre, v):
                    continue
                if p.marker is not None:
                    bucket.add((p.marker, ()))
                elif p.effects:
                    bucket.add((p.outcome or "none", p.effects))
                else:
                    bucket.add(("none", ()))
    return CodeRelation(
        transitions={k: frozenset(s) for k, s in transitions.items()},
        op_locations=locations,
        n_paths=n_paths,
        path=path,
    )


# ----------------------------------------------------------------------
# Model-side extraction: execute the abstract model, record its actions
# ----------------------------------------------------------------------


class _RecordingDirectory(Directory):
    """A Directory that journals the transition calls made on it."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[Effect] = []

    def record_fill_shared(
        self, subpage_id: int, cell_id: int, *, entry: Optional[DirectoryEntry] = None
    ) -> None:
        self.calls.append(("record_fill_shared",))
        super().record_fill_shared(subpage_id, cell_id, entry=entry)

    def record_fill_exclusive(
        self,
        subpage_id: int,
        cell_id: int,
        *,
        atomic: bool = False,
        entry: Optional[DirectoryEntry] = None,
    ) -> None:
        self.calls.append(("record_fill_exclusive", atomic))
        super().record_fill_exclusive(subpage_id, cell_id, atomic=atomic, entry=entry)

    def demote_owner(self, subpage_id: int) -> None:
        self.calls.append(("demote_owner",))
        super().demote_owner(subpage_id)

    def invalidate_others(self, subpage_id: int, keep_cell: int) -> frozenset[int]:
        self.calls.append(("invalidate_others",))
        return super().invalidate_others(subpage_id, keep_cell)

    def set_atomic(self, subpage_id: int, cell_id: int, value: bool) -> None:
        self.calls.append(("set_atomic", value))
        super().set_atomic(subpage_id, cell_id, value)

    def drop_copy(self, subpage_id: int, cell_id: int) -> None:
        self.calls.append(("drop_copy",))
        super().drop_copy(subpage_id, cell_id)


def extract_model_relation(n_cells: int = 3) -> dict[tuple[str, Valuation], OutcomeEffects]:
    """Enumerate the abstract model's transitions over guard valuations.

    BFS over :class:`~repro.analysis.modelcheck.CoherenceModel`'s
    reachable states with a recording directory; every (action,
    abstract pre-state) pair contributes its (outcome, directory
    actions) under the pre-state's valuation.  Distinct concrete states
    sharing a valuation must agree — disagreement means the valuation
    atoms no longer determine the model's behaviour and the abstraction
    must grow (raised as :class:`ExtractionError`).
    """
    from repro.analysis.modelcheck import CoherenceModel

    class _RecordingModel(CoherenceModel):
        recorded: _RecordingDirectory

        def _directory_for(self, created, cells):  # type: ignore[override]
            base = super()._directory_for(created, cells)
            d = _RecordingDirectory()
            d._entries = base._entries
            self.recorded = d
            return d

    model = _RecordingModel(n_cells)
    relation: dict[tuple[str, Valuation], OutcomeEffects] = {}
    init = model.initial()
    seen = {init}
    queue = [init]
    while queue:
        state = queue.pop()
        for action in model.enabled(state):
            kind, cell = action
            valuation = _abstract_valuation(state, cell)
            new = model.apply(state, action)
            if kind in OPS:
                outcome = _actor_outcome(new, cell)
                effects = tuple(model.recorded.calls)
                key = (kind, valuation)
                existing = relation.get(key)
                if existing is not None and existing != (outcome, effects):
                    raise ExtractionError(
                        f"abstract model not a function of the guard atoms: "
                        f"{kind} at {dict(zip(ATOMS, valuation))} yields both "
                        f"{existing} and {(outcome, effects)}"
                    )
                relation[key] = (outcome, effects)
            if new not in seen:
                seen.add(new)
                queue.append(new)
    return relation


def _abstract_valuation(state: Any, actor: int) -> Valuation:
    from repro.coherence.states import SubpageState

    created, copies = state
    states = [c[0] for c in copies]
    owner = next(
        (i for i, st in enumerate(states) if st in (SubpageState.EXCLUSIVE, SubpageState.ATOMIC)),
        None,
    )
    v = {
        "atomic": owner is not None and states[owner] is SubpageState.ATOMIC,
        "owner_is_actor": owner == actor,
        "owner_exists": owner is not None,
        "has_valid": any(st is not None and st.valid for st in states),
        "created": created,
        "placeholders": any(st is SubpageState.INVALID for st in states),
        "actor_valid": states[actor] is not None and states[actor].valid,
    }
    return tuple(v[a] for a in ATOMS)


def _actor_outcome(state: Any, actor: int) -> str:
    _, copies = state
    st = copies[actor][0]
    return st.name if st is not None else "absent"


# ----------------------------------------------------------------------
# The diff
# ----------------------------------------------------------------------


def conformance_findings(
    protocol_source: Optional[str] = None,
    protocol_path: str = "coherence/protocol.py",
    n_cells: int = 3,
) -> tuple[list[Finding], dict[str, Any]]:
    """Diff the code relation against the model relation.

    Returns ``(findings, stats)``; each finding's ``detail`` carries
    the offending transition (op, guard valuation, both sides).
    """
    code = extract_code_relation(protocol_source, protocol_path)
    model = extract_model_relation(n_cells)
    findings: list[Finding] = []
    n_checked = 0
    n_agree = 0
    uncovered: list[str] = []
    for op in OPS:
        line, col, signature = code.op_locations[op]
        for valuation in op_valuations(op):
            n_checked += 1
            guard = tuple(zip(ATOMS, valuation))
            m = model.get((op, valuation))
            outcomes = code.lookup(op, valuation)
            real = {o for o in outcomes if o[0] not in ("none", "blocked")}
            if m is None:
                if real:
                    uncovered.append(Transition(op, guard, *next(iter(real))).describe())
                continue
            model_t = Transition(op, guard, m[0], m[1])
            if m not in real:
                got = (
                    "; ".join(sorted(Transition(op, guard, o, e).describe() for o, e in real))
                    or "no feasible transition (blocked or identity only)"
                )
                findings.append(
                    Finding(
                        rule="KSR113",
                        path=code.path,
                        line=line,
                        col=col,
                        message=(
                            f"protocol lacks a transition the abstract model requires: "
                            f"model {model_t.describe()}; code has {got}"
                        ),
                        snippet=f"{signature} :: {op} :: missing",
                        detail={
                            "op": op,
                            "guard": dict(guard),
                            "model": model_t.describe(),
                            "code": sorted(
                                Transition(op, guard, o, e).describe() for o, e in real
                            ),
                            "kind": "missing_in_code",
                        },
                    )
                )
            for o, e in sorted(real):
                if (o, e) != m:
                    code_t = Transition(op, guard, o, e)
                    findings.append(
                        Finding(
                            rule="KSR113",
                            path=code.path,
                            line=line,
                            col=col,
                            message=(
                                f"protocol transition the abstract model forbids: "
                                f"code {code_t.describe()}; model requires {model_t.describe()}"
                            ),
                            snippet=f"{signature} :: {op} :: {code_t.describe()}",
                            detail={
                                "op": op,
                                "guard": dict(guard),
                                "model": model_t.describe(),
                                "code": [code_t.describe()],
                                "kind": "forbidden_in_model",
                            },
                        )
                    )
            if m in real and all((o, e) == m for o, e in real):
                n_agree += 1
    stats = {
        "valuations_checked": n_checked,
        "valuations_agreeing": n_agree,
        "model_transitions": len(model),
        "code_paths": dict(code.n_paths),
        "uncovered_code_transitions": uncovered,
    }
    return findings, stats
