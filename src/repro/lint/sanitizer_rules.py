"""RL6xx — sanitizer-coverage rules over the determinism surface.

The reprosan shadow trace (:mod:`repro.sanitizer`) only bisects
divergences it *saw*: a draw from a raw ``random.Random`` constructed
outside the instrumented factory, or from a generator pulled out of
the factory's internals, is a blind spot that reappears as an
unexplainable end-of-run digest mismatch.  These rules keep the hook
surface airtight statically:

* **RL601** — RNG construction outside the factory
  (``repro/sim/rng.py``).  Every campaign stream must come from
  ``RngFactory.stream()``/``fresh()`` so the sanitizer proxy can see
  the draws; a hand-rolled generator is invisible to the trace.  At
  run time the rule flags ``random.Random(...)``; at import time
  (module or class body) it also flags ``numpy.random`` generators,
  ``RngFactory(...)`` and ``.stream``/``.fresh``/``.child`` calls,
  because a module-level stream is shared by every importer and its
  state depends on import order.  Detector-side fixed-seed samplers
  that never touch the campaign surface carry a pragma with that
  justification.
* **RL604** — hook laundering.  Code outside the shells must not
  reach into the factory/proxy internals (``._streams``,
  ``._wrapped``, ``._raw``, or ``getattr`` with those names) — and,
  via the fixpoint call graph, must not call a helper that does.  A
  pragma on the helper silences the site, not the capability; every
  caller is flagged independently.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.lint.findings import Finding, Severity
from repro.lint.rules import ModuleContext, ProjectRule, Rule

#: The modules sanctioned to touch raw generators and proxy internals:
#: the factory itself and the sanitizer package (whose hooks are the
#: instrumentation).
SANITIZER_SHELLS = ("repro/sim/rng.py", "repro/sanitizer/")

#: Factory/proxy internals whose access outside the shells launders
#: draws past the instrumentation.
_HOOK_INTERNALS = frozenset({"_streams", "_wrapped", "_raw"})

_RNG_FACTORY_METHODS = frozenset({"stream", "fresh", "child"})


def _in_shell(path: str) -> bool:
    return any(path.startswith(prefix) for prefix in SANITIZER_SHELLS)


def _module_scope_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Statements executed at import time: module body and class bodies,
    never function bodies."""
    stack: List[ast.stmt] = list(tree.body)
    while stack:
        stmt = stack.pop(0)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(stmt, ast.ClassDef):
            stack.extend(stmt.body)
            continue
        yield stmt
        for attr in ("body", "orelse", "finalbody"):
            stack.extend(getattr(stmt, attr, []) or [])
        for handler in getattr(stmt, "handlers", []) or []:
            stack.extend(handler.body)


def _calls_outside_defs(stmt: ast.stmt) -> Iterator[ast.Call]:
    """Call nodes in a statement, not descending into nested defs."""
    stack: List[ast.AST] = [stmt]
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _rng_construction(ctx: ModuleContext, call: ast.Call) -> Optional[str]:
    """Label of the generator an import-time call constructs, if any."""
    dotted = ctx.resolve(call.func)
    if dotted is not None:
        if dotted == "random.Random":
            return "random.Random(...)"
        if dotted in ("numpy.random.RandomState",
                      "numpy.random.default_rng"):
            return f"{dotted}(...)"
        if dotted.rsplit(".", 1)[-1] == "RngFactory":
            return "RngFactory(...)"
    func = call.func
    if isinstance(func, ast.Attribute):
        # Any factory-method call at import time is stream
        # construction, whatever the factory is bound to.
        if func.attr in _RNG_FACTORY_METHODS:
            return f".{func.attr}(...)"
    elif isinstance(func, ast.Name) and func.id == "RngFactory":
        return "RngFactory(...)"
    return None


class RawStreamConstructionRule(Rule):
    """RL601 — streams must be born inside the instrumented factory."""

    rule_id = "RL601"
    severity = Severity.ERROR
    description = "RNG constructed outside the instrumented factory"
    hint = ("entities receive their stream as a parameter "
            "(world.rng.stream(name)/fresh(name)) so the sanitizer sees "
            "every draw; a hand-rolled or module-level generator is "
            "invisible to divergence bisection")

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        import_time: Set[int] = set()
        for stmt in _module_scope_statements(ctx.tree):
            for call in _calls_outside_defs(stmt):
                import_time.add(id(call))
                label = _rng_construction(ctx, call)
                if label is not None:
                    yield ctx.finding(
                        self, call,
                        f"module-scope RNG construction {label} is "
                        "shared, import-order-dependent state")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or id(node) in import_time:
                continue
            if ctx.resolve(node.func) == "random.Random":
                yield ctx.finding(
                    self, node,
                    "random.Random(...) constructed outside the "
                    "factory; its draws bypass the sanitizer trace")


class HookLaunderingRule(ProjectRule):
    """RL604 — hook internals stay inside the shells, even one hop out."""

    rule_id = "RL604"
    severity = Severity.ERROR
    description = ("factory/proxy internals accessed (directly or via "
                   "a helper) outside the sanitizer shells")
    hint = ("go through the public factory surface (stream()/fresh()/"
            "export_state()); reaching into _streams/_wrapped/_raw "
            "hands out generators the trace cannot see")

    def run_project(self, graph) -> Iterator[Finding]:
        primitives = self._primitive_functions(graph)
        launderers = self._transitive(graph, primitives)
        for module in sorted(graph.modules):
            info = graph.modules[module]
            if _in_shell(info.path):
                continue
            for node, why in self._direct_accesses(info.ctx,
                                                   info.ctx.tree):
                yield info.ctx.finding(
                    self, node, f"{why} outside the sanitizer shells")
            yield from self._check_laundering(graph, info, launderers)

    # -- direct access -------------------------------------------------
    @staticmethod
    def _direct_accesses(ctx: ModuleContext, tree: ast.AST):
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in _HOOK_INTERNALS):
                yield node, f"access to hook internal .{node.attr}"
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ("getattr", "setattr")
                  and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)
                  and node.args[1].value in _HOOK_INTERNALS):
                yield (node, f"{node.func.id}(..., "
                             f"{node.args[1].value!r}) launders a hook "
                             f"internal through dynamic lookup")

    # -- helper laundering over the fixpoint call graph ----------------
    def _primitive_functions(self, graph) -> Set[str]:
        """qnames of non-shell functions that touch hook internals."""
        found: Set[str] = set()
        for qname in sorted(graph.functions):
            fn = graph.functions[qname]
            if _in_shell(fn.path):
                continue
            fn_info = graph.by_path.get(fn.path)
            if fn_info is None:
                continue
            for _node, _why in self._direct_accesses(fn_info.ctx,
                                                     fn.node):
                found.add(qname)
                break
        return found

    @staticmethod
    def _transitive(graph, primitives: Set[str]) -> Dict[str, str]:
        """fn qname -> the primitive it (transitively) reaches."""
        reaches: Dict[str, str] = {qname: qname for qname in primitives}
        changed = True
        while changed:
            changed = False
            for qname in sorted(graph.calls):
                if qname in reaches:
                    continue
                fn = graph.functions.get(qname)
                if fn is not None and _in_shell(fn.path):
                    continue    # shell helpers are the sanctioned route
                for callee in sorted(graph.calls.get(qname, ())):
                    target = reaches.get(callee)
                    if target is not None:
                        reaches[qname] = target
                        changed = True
                        break
        return reaches

    def _check_laundering(self, graph, info,
                          launderers: Dict[str, str]
                          ) -> Iterator[Finding]:
        for fn in sorted(info.functions.values(),
                         key=lambda f: f.qname):
            for call in ast.walk(fn.node):
                if not isinstance(call, ast.Call):
                    continue
                callee = graph.resolve_call(info, fn, call)
                if callee is None or _in_shell(callee.path):
                    continue
                primitive = launderers.get(callee.qname)
                if primitive is None:
                    continue
                yield info.ctx.finding(
                    self, call,
                    f"call launders hook internals through "
                    f"{callee.qname}() (reaches {primitive}())")


def sanitizer_rules() -> List[Rule]:
    return [RawStreamConstructionRule(), HookLaunderingRule()]
