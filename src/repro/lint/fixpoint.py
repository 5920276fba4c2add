"""Interprocedural fixpoint over the project call graph.

``repro.lint.summaries`` used to be strictly one-level: every function
was summarised against an *empty* table, so a helper-of-a-helper never
propagated taint and the RL1xx/RL3xx families went blind past one hop.
This module replaces that with a classic bottom-up fixpoint:

1. The call graph (``ProjectGraph.calls``) is condensed into strongly
   connected components (iterative Tarjan, deterministic order).
   Tarjan emits SCCs in reverse topological order — callees first —
   so by the time a caller is summarised its callees' summaries are
   already final.
2. Within an SCC (mutual recursion) members are re-summarised until
   nothing changes.  Every summary fact is a set that only ever grows
   under re-evaluation, so the iteration is monotone and terminates.

On top of the existing taint facts the fixpoint computes which
module-level names each function writes, directly or through any
callee chain (``global_writes``, read by RL402's forked-child purity
check in ``repro.lint.stateflow``), and a ``returns_taint`` bit (the
return value carries a token sourced *inside* the body, not just
passed through).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.lint.taint import TOKEN_PARAM_NAMES, TaintWalker, TokenTaintSpec

#: Methods that mutate their receiver in place.  A call
#: ``REGISTRY.append(...)`` is a write to the module-level name.
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "discard", "remove", "pop",
    "popleft", "popitem", "clear", "update", "extend", "insert",
    "setdefault", "sort", "reverse",
})

#: Callees under these path prefixes never donate ``mutates_platform``
#: to their callers: the Graph API *is* the sanctioned route to the
#: platform, so calling it must not read as an indirect raw write.
_SANCTIONED_MUTATION_PATHS = ("repro/graphapi/",)


# ----------------------------------------------------------------------
# Direct module-global writes of one function body
# ----------------------------------------------------------------------
def _strip_subscripts(node: ast.AST) -> ast.AST:
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def _flatten_targets(target: ast.AST) -> Iterable[ast.AST]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten_targets(element)
    else:
        yield target


def direct_effects(fn_node: ast.AST,
                   module_names: FrozenSet[str]) -> Set[str]:
    """Module-level names a body writes directly.

    Tracks ``global``-declared rebinding, subscript stores and ``del``
    into module-level containers, and in-place mutator calls on
    module-level names.  Writes through a local alias
    (``ref = REGISTRY; ref.append(1)``) are out of scope — the one
    documented hole, shared with every summary fact here.
    """
    global_writes: Set[str] = set()
    declared_global: Set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    for node in ast.walk(fn_node):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            for leaf in _flatten_targets(target):
                stripped = _strip_subscripts(leaf)
                if isinstance(stripped, ast.Name):
                    name = stripped.id
                    if name in declared_global or (
                            not isinstance(leaf, ast.Name)
                            and name in module_names):
                        # ``global x; x = ...`` or a subscript store
                        # into a module-level container.
                        global_writes.add(name)
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATOR_METHODS):
            stripped = _strip_subscripts(node.func.value)
            if (isinstance(stripped, ast.Name)
                    and stripped.id in module_names):
                global_writes.add(stripped.id)
    return global_writes


def module_level_names(tree: ast.Module) -> FrozenSet[str]:
    """Names bound by assignment at a module's top level."""
    names: Set[str] = set()
    for stmt in tree.body:
        targets: List[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            for leaf in _flatten_targets(target):
                if isinstance(leaf, ast.Name):
                    names.add(leaf.id)
    return frozenset(names)


# ----------------------------------------------------------------------
# SCC condensation (iterative Tarjan, deterministic)
# ----------------------------------------------------------------------
def strongly_connected_components(
        nodes: List[str],
        edges: Dict[str, List[str]]) -> List[List[str]]:
    """Tarjan SCCs, emitted callees-first (reverse topological).

    Both ``nodes`` and each adjacency list must be pre-sorted; the
    result is then fully deterministic.  Iterative so a thousand-deep
    helper chain cannot hit the recursion limit.
    """
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[List[str]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work: List[Tuple[str, Iterable[str]]] = [
            (root, iter(edges.get(root, ())))]
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(edges.get(child, ()))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


# ----------------------------------------------------------------------
# Summarising one function against the current (partial) table
# ----------------------------------------------------------------------
def summarise_function(graph, fn, module_names: FrozenSet[str]):
    """One function's summary, reading ``graph.summaries`` as-is.

    During the fixpoint the table is partial (SCC members mid-flight);
    every fact is re-derived from scratch each round, so a stale read
    only delays convergence, never corrupts it.
    """
    from repro.lint.summaries import (
        FunctionSummary,
        platform_mutation_calls,
    )

    info = graph.by_path.get(fn.path)
    summary = FunctionSummary(qname=fn.qname, params=list(fn.params))
    if info is None:
        return summary
    spec = TokenTaintSpec()
    initial = {param: {param} for param in fn.params}
    walker = TaintWalker(info.ctx, spec, initial)
    walker._function = fn
    walker.walk(fn.node.body)
    for _node, kind, origins in walker.sink_hits:
        base_kind = kind.split(":", 1)[0]
        for origin in origins:
            if origin in fn.params and origin not in TOKEN_PARAM_NAMES:
                summary.param_sink_flows.setdefault(
                    origin, set()).add(base_kind)
    summary.taint_through = {
        origin for origin in walker.return_origins
        if origin in fn.params
    }
    summary.returns_taint = TaintWalker.GENERIC in walker.return_origins
    summary.mutates_platform = {
        call.func.attr for call in platform_mutation_calls(fn.node)
    }
    summary.global_writes = direct_effects(fn.node, module_names)
    # Effect inheritance through resolved call sites.
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        callee_fn = graph.resolve_call(info, fn, node)
        if callee_fn is None:
            continue
        callee = graph.summaries.get(callee_fn.qname)
        if callee is None:
            continue
        summary.global_writes |= callee.global_writes
        if not callee_fn.path.startswith(_SANCTIONED_MUTATION_PATHS):
            summary.mutates_platform |= callee.mutates_platform
    return summary


def _summary_key(summary) -> Optional[Tuple]:
    if summary is None:
        return None
    return (
        tuple(sorted((param, tuple(sorted(kinds)))
                     for param, kinds in summary.param_sink_flows.items())),
        tuple(sorted(summary.taint_through)),
        tuple(sorted(summary.mutates_platform)),
        tuple(sorted(summary.global_writes)),
        summary.returns_taint,
    )


# ----------------------------------------------------------------------
# The fixpoint driver
# ----------------------------------------------------------------------
#: Per-SCC iteration cap.  Convergence is guaranteed by monotonicity;
#: the cap is a belt against a future non-monotone fact sneaking in.
MAX_ROUNDS = 32


def build_summaries(graph) -> None:
    """Populate ``graph.summaries`` to interprocedural convergence."""
    graph.summaries = {}
    names_by_path: Dict[str, FrozenSet[str]] = {}
    for info in graph.by_path.values():
        names_by_path[info.path] = module_level_names(info.ctx.tree)
    nodes = sorted(graph.functions)
    edges = {
        qname: sorted(callee for callee in graph.calls.get(qname, ())
                      if callee in graph.functions)
        for qname in nodes
    }
    for component in strongly_connected_components(nodes, edges):
        members = sorted(component)
        self_recursive = (len(members) > 1
                          or members[0] in edges.get(members[0], ()))
        for _round in range(MAX_ROUNDS):
            changed = False
            for qname in members:
                fn = graph.functions[qname]
                summary = summarise_function(
                    graph, fn, names_by_path.get(fn.path, frozenset()))
                if _summary_key(summary) != _summary_key(
                        graph.summaries.get(qname)):
                    graph.summaries[qname] = summary
                    changed = True
            if not changed or not self_recursive:
                break
