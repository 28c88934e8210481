"""Whole-program view of ``src/repro``: the one tree every rule reads.

Every ``ksr-analyze`` rule over the source — the per-module lint rules
and the dataflow passes alike — reads the same *program*: every
module's AST, an index of classes (does this type define a stable
``__repr__``?  a ``cache_token``?), an index of functions with their
annotations, and a best-effort call-name resolution so taint summaries
can propagate across calls.  :func:`iter_package_sources` is the only
walk over the package tree.

Sink declarations
-----------------
Determinism sinks are owned by the subsystems themselves: a module may
declare ::

    __ksr_flow_sinks__ = ("Engine.schedule", "Engine.schedule_at")

and the loader collects every declaration (by AST — the modules are
never imported, so a syntactically valid tree is enough even when the
module's runtime dependencies are absent).  The flow passes merge these
with their built-in defaults; the declarations keep the knowledge of
*what must stay deterministic* next to the code that enforces it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "Module",
    "Program",
    "attr_chain",
    "load_program",
    "repro_root",
]

#: Module attribute naming determinism sinks (``"Class.method"`` or
#: bare function names whose arguments must be deterministic).
SINK_DECLARATION = "__ksr_flow_sinks__"


@dataclass
class ClassInfo:
    """What the flow passes need to know about one class definition."""

    name: str
    relpath: str
    node: ast.ClassDef
    #: ``@dataclass``-decorated (synthesized field-wise ``__repr__``).
    is_dataclass: bool = False
    #: Defines ``__repr__`` explicitly.
    has_repr: bool = False
    #: Defines ``cache_token`` (method, property or annotated field).
    has_cache_token: bool = False
    #: Base-class names as spelled (for single-hop inheritance lookups).
    bases: tuple[str, ...] = ()

    @property
    def stable_key(self) -> bool:
        """Usable as a :func:`repro.experiments.sweep.point_key` kwarg."""
        return self.is_dataclass or self.has_repr or self.has_cache_token


@dataclass
class FunctionInfo:
    """One function or method definition."""

    #: ``"module.py::name"`` or ``"module.py::Class.name"``.
    qualname: str
    name: str
    relpath: str
    node: ast.FunctionDef
    #: Enclosing class name, if a method.
    cls: Optional[str] = None
    #: Parameter name -> annotation source text (``"int"``, ``"ObsSpec | None"``).
    annotations: dict[str, str] = field(default_factory=dict)
    #: Return annotation source text, if any.
    returns: Optional[str] = None


@dataclass
class Module:
    """One parsed source module."""

    relpath: str
    source: str
    tree: ast.Module
    #: Local name -> dotted module/class it was imported from.
    imports: dict[str, str] = field(default_factory=dict)


class Program:
    """An indexed collection of modules (the analysis universe)."""

    def __init__(self) -> None:
        self.modules: dict[str, Module] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: Simple name -> every definition with that name.
        self.functions: dict[str, list[FunctionInfo]] = {}
        #: Fully qualified ``relpath::Class.name`` -> definition.
        self.functions_by_qualname: dict[str, FunctionInfo] = {}
        #: Merged ``__ksr_flow_sinks__`` declarations.
        self.declared_sinks: set[str] = set()

    # -- construction --------------------------------------------------

    def add_module(self, relpath: str, source: str) -> None:
        """Parse one module and fold it into the program indexes."""
        tree = ast.parse(source, filename=relpath)
        module = Module(relpath=relpath, source=source, tree=tree)
        self.modules[relpath] = module
        self._index(module)

    def _index(self, module: Module) -> None:
        for node in module.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    module.imports[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    base = node.module or ""
                    module.imports[alias.asname or alias.name] = f"{base}.{alias.name}"
            elif isinstance(node, ast.Assign):
                self._maybe_sink_declaration(node)
            elif isinstance(node, ast.ClassDef):
                self._index_class(module, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(node, ast.FunctionDef):
                    self._index_function(module, node, cls=None)

    def _maybe_sink_declaration(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == SINK_DECLARATION:
                try:
                    value = ast.literal_eval(node.value)
                except ValueError:
                    return
                if isinstance(value, (tuple, list)):
                    self.declared_sinks.update(str(v) for v in value)

    def _index_class(self, module: Module, node: ast.ClassDef) -> None:
        is_dataclass = any(
            (isinstance(d, ast.Name) and d.id == "dataclass")
            or (isinstance(d, ast.Attribute) and d.attr == "dataclass")
            or (
                isinstance(d, ast.Call)
                and (
                    (isinstance(d.func, ast.Name) and d.func.id == "dataclass")
                    or (isinstance(d.func, ast.Attribute) and d.func.attr == "dataclass")
                )
            )
            for d in node.decorator_list
        )
        has_repr = False
        has_cache_token = False
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                if item.name == "__repr__":
                    has_repr = True
                if item.name == "cache_token":
                    has_cache_token = True
                self._index_function(module, item, cls=node.name)
            elif isinstance(item, ast.AnnAssign):
                if isinstance(item.target, ast.Name) and item.target.id == "cache_token":
                    has_cache_token = True
            elif isinstance(item, ast.Assign):
                for target in item.targets:
                    if isinstance(target, ast.Name) and target.id == "cache_token":
                        has_cache_token = True
        bases = tuple(
            b.id if isinstance(b, ast.Name) else b.attr
            for b in node.bases
            if isinstance(b, (ast.Name, ast.Attribute))
        )
        info = ClassInfo(
            name=node.name,
            relpath=module.relpath,
            node=node,
            is_dataclass=is_dataclass,
            has_repr=has_repr,
            has_cache_token=has_cache_token,
            bases=bases,
        )
        # Last definition wins; class names are unique in practice.
        self.classes[node.name] = info

    def _index_function(
        self, module: Module, node: ast.FunctionDef, *, cls: Optional[str]
    ) -> None:
        annotations: dict[str, str] = {}
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is not None:
                annotations[arg.arg] = ast.unparse(arg.annotation)
        returns = ast.unparse(node.returns) if node.returns is not None else None
        qual = f"{module.relpath}::{cls + '.' if cls else ''}{node.name}"
        info = FunctionInfo(
            qualname=qual,
            name=node.name,
            relpath=module.relpath,
            node=node,
            cls=cls,
            annotations=annotations,
            returns=returns,
        )
        self.functions.setdefault(node.name, []).append(info)
        self.functions_by_qualname[qual] = info

    # -- queries -------------------------------------------------------

    def class_is_stable_key(self, name: str) -> Optional[bool]:
        """Whether ``name`` is safe as a cache-key kwarg type.

        ``None`` when the class (or a base it might inherit a repr
        from) is outside the analyzed program.  Follows one level of
        local inheritance — enough for the repo's config hierarchies.
        """
        info = self.classes.get(name)
        if info is None:
            return None
        if info.stable_key:
            return True
        for base in info.bases:
            base_info = self.classes.get(base)
            if base_info is not None and base_info.stable_key:
                return True
        return False

    def resolve_call(self, relpath: str, node: ast.Call) -> Optional[FunctionInfo]:
        """Best-effort resolution of a call to a program function.

        Handles ``name(...)`` for same-module or ``from x import name``
        definitions and ``self.name(...)`` / ``obj.name(...)`` by the
        method's simple name when it is unique program-wide.  Returns
        ``None`` for stdlib / third-party / ambiguous targets.
        """
        func = node.func
        name: Optional[str] = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name is None:
            return None
        candidates = self.functions.get(name, [])
        if not candidates:
            return None
        same_module = [c for c in candidates if c.relpath == relpath]
        if isinstance(func, ast.Name):
            if same_module:
                return same_module[0]
            imported = self.modules[relpath].imports.get(name) if relpath in self.modules else None
            if imported is not None:
                return candidates[0]
            return None
        # attribute call: prefer same-module methods, else a unique name
        if same_module:
            return same_module[0]
        if len(candidates) == 1:
            return candidates[0]
        return None


def attr_chain(node: ast.expr) -> list[str]:
    """Dotted callee names, skipping over calls and subscripts."""
    parts: list[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, (ast.Call, ast.Subscript)):
            node = node.func if isinstance(node, ast.Call) else node.value
        else:
            break
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return list(reversed(parts))


def repro_root() -> Path:
    """Directory of the installed ``repro`` package."""
    import repro

    return Path(repro.__file__).resolve().parent


def iter_package_sources(root: Path) -> Iterable[tuple[str, str]]:
    """(relpath, source) for every module under the package root."""
    for path in sorted(root.rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        yield relpath, path.read_text(encoding="utf-8")


def load_program(sources: Optional[dict[str, str]] = None) -> Program:
    """Build a :class:`Program` from the installed package or, for
    tests, from an explicit ``{relpath: source}`` mapping."""
    program = Program()
    modules = sorted(sources.items()) if sources is not None else iter_package_sources(repro_root())
    for relpath, source in modules:
        program.add_module(relpath, source)
    return program
