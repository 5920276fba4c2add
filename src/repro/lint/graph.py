"""Project-level symbol table, import graph and call graph.

The v2 rule families (token taint, RNG discipline, API contract)
need to see past a single module: which names are classes, which
classes are exceptions, which function a call site resolves to, and
what that function does with its parameters (``repro.lint.summaries``).
:class:`ProjectGraph` provides that view.  It is built once per engine
run over every module that parsed, and each :class:`ModuleContext`
gets a back-reference so per-module rules can consult it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.rules import ModuleContext

#: Builtin exception names treated as exceptional roots when resolving
#: whether a project class is an exception type.
_BUILTIN_EXCEPTIONS = frozenset({
    "BaseException", "Exception", "ArithmeticError", "AssertionError",
    "AttributeError", "BufferError", "EOFError", "ImportError",
    "IndexError", "KeyError", "KeyboardInterrupt", "LookupError",
    "MemoryError", "NameError", "NotImplementedError", "OSError",
    "OverflowError", "PermissionError", "RecursionError",
    "ReferenceError", "RuntimeError", "StopIteration", "SyntaxError",
    "SystemError", "SystemExit", "TimeoutError", "TypeError",
    "ValueError", "ZeroDivisionError", "EnvironmentError", "IOError",
    "Warning", "UserWarning", "RuntimeWarning", "DeprecationWarning",
})


def module_name_of(path: str) -> str:
    """Dotted module name for a normalised posix path.

    ``repro/graphapi/api.py`` -> ``repro.graphapi.api``;
    ``repro/lint/__init__.py`` -> ``repro.lint``.
    """
    parts = list(Path(path).with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qname: str                  # repro.graphapi.api.GraphApi.execute
    name: str
    module: str
    path: str
    cls: Optional[str]          # enclosing class name, if a method
    node: ast.AST               # FunctionDef | AsyncFunctionDef

    @property
    def params(self) -> List[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        if self.cls is not None and names and names[0] in ("self", "cls"):
            names = names[1:]
        return names + [a.arg for a in args.kwonlyargs]


@dataclass
class ClassInfo:
    """One class definition in the project."""

    qname: str
    name: str
    module: str
    path: str
    bases: Tuple[str, ...]      # resolved dotted bases where possible
    node: ast.AST


@dataclass
class ModuleInfo:
    """Per-module slice of the project graph."""

    path: str
    module: str
    ctx: ModuleContext
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    imports: Set[str] = field(default_factory=set)


class ProjectGraph:
    """Symbol table + import/call graph over a set of parsed modules."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_path: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: caller qname -> set of resolved callee qnames
        self.calls: Dict[str, Set[str]] = {}
        #: function qname -> FunctionSummary (repro.lint.summaries)
        self.summaries: Dict[str, object] = {}
        self._exceptional: Dict[str, bool] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, contexts: Iterable[ModuleContext]) -> "ProjectGraph":
        graph = cls()
        for ctx in contexts:
            graph._index_module(ctx)
        for info in graph.modules.values():
            graph._link_calls(info)
        # The fixpoint resolves calls through ctx.project while it
        # iterates, so the back-reference must be live before
        # build_summaries runs (lazy import avoids a cycle at load).
        for ctx in contexts:
            ctx.project = graph
        from repro.lint.fixpoint import build_summaries

        build_summaries(graph)
        return graph

    def _index_module(self, ctx: ModuleContext) -> None:
        module = module_name_of(ctx.path)
        info = ModuleInfo(path=ctx.path, module=module, ctx=ctx)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    info.imports.add(alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module:
                info.imports.add(node.module)
        for node in ctx.tree.body:
            self._index_def(info, node, prefix="")
        self.modules[module] = info
        self.by_path[ctx.path] = info

    def _index_def(self, info: ModuleInfo, node: ast.AST,
                   prefix: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local = f"{prefix}{node.name}"
            qname = f"{info.module}.{local}"
            fn = FunctionInfo(
                qname=qname, name=node.name, module=info.module,
                path=info.path,
                cls=prefix[:-1] if prefix else None, node=node)
            info.functions[local] = fn
            self.functions[qname] = fn
        elif isinstance(node, ast.ClassDef):
            bases = tuple(
                info.ctx.resolve(base) or self._base_name(base)
                for base in node.bases)
            qname = f"{info.module}.{node.name}"
            ci = ClassInfo(qname=qname, name=node.name,
                           module=info.module, path=info.path,
                           bases=tuple(b for b in bases if b),
                           node=node)
            info.classes[node.name] = ci
            self.classes[qname] = ci
            for child in node.body:
                self._index_def(info, child, prefix=f"{node.name}.")

    @staticmethod
    def _base_name(node: ast.AST) -> str:
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
        return ".".join(reversed(parts))

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------
    def _link_calls(self, info: ModuleInfo) -> None:
        for local, fn in info.functions.items():
            callees: Set[str] = set()
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                target = self.resolve_call(info, fn, node)
                if target is not None:
                    callees.add(target.qname)
            self.calls[fn.qname] = callees

    def resolve_call(self, info: ModuleInfo, caller: Optional[FunctionInfo],
                     call: ast.Call) -> Optional[FunctionInfo]:
        """Best-effort resolution of a call site to a project function.

        Handles imported names (via the module's alias table), local
        module-level functions, and ``self.method()`` within a class.
        Method calls on arbitrary objects stay unresolved — call
        resolution deliberately trades soundness for zero surprises.
        """
        func = call.func
        dotted = info.ctx.resolve(func)
        if dotted is not None:
            fn = self.functions.get(dotted)
            if fn is not None:
                return fn
            # from x import Class; Class.method / instance constructors
            ci = self.classes.get(dotted)
            if ci is not None:
                init = self.functions.get(f"{ci.qname}.__init__")
                return init
        if isinstance(func, ast.Name):
            fn = info.functions.get(func.id)
            if fn is not None:
                return fn
            ci = info.classes.get(func.id)
            if ci is not None:
                return self.functions.get(f"{ci.qname}.__init__")
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and caller is not None and caller.cls is not None):
            return info.functions.get(f"{caller.cls}.{func.attr}")
        return None

    def resolve_class(self, info: ModuleInfo,
                      call: ast.Call) -> Optional[ClassInfo]:
        """The project class a call constructs, if any."""
        func = call.func
        dotted = info.ctx.resolve(func)
        if dotted is not None:
            ci = self.classes.get(dotted)
            if ci is not None:
                return ci
        if isinstance(func, ast.Name):
            return info.classes.get(func.id)
        return None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_exception_class(self, name: str) -> bool:
        """Whether ``name`` (dotted or bare last component) denotes an
        exception type, chasing project class bases to builtin roots."""
        last = name.rsplit(".", 1)[-1]
        if last in _BUILTIN_EXCEPTIONS:
            return True
        cached = self._exceptional.get(name)
        if cached is not None:
            return cached
        self._exceptional[name] = False   # cycle guard
        ci = self.classes.get(name)
        if ci is None:
            # Fall back to matching a uniquely named project class.
            matches = [c for c in self.classes.values() if c.name == last]
            ci = matches[0] if len(matches) == 1 else None
        result = False
        if ci is not None:
            result = any(self.is_exception_class(base)
                         for base in ci.bases)
        self._exceptional[name] = result
        return result

