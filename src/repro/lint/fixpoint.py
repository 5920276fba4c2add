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

On top of the parameter-flow facts the fixpoint computes a
``returns_taint`` bit (the return value carries a token sourced
*inside* the body, not just passed through) and which platform
mutations each function reaches through any callee chain
(``mutates_platform``, read by RL302).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.taint import TOKEN_PARAM_NAMES, TaintWalker, TokenTaintSpec

#: Callees under these path prefixes never donate ``mutates_platform``
#: to their callers: the Graph API *is* the sanctioned route to the
#: platform, so calling it must not read as an indirect raw write.
_SANCTIONED_MUTATION_PATHS = ("repro/graphapi/",)


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
def summarise_function(graph, fn):
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
    # Platform mutations inherited through resolved call sites.
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        callee_fn = graph.resolve_call(info, fn, node)
        if (callee_fn is None
                or callee_fn.path.startswith(_SANCTIONED_MUTATION_PATHS)):
            continue
        callee = graph.summaries.get(callee_fn.qname)
        if callee is not None:
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
                summary = summarise_function(graph, graph.functions[qname])
                if _summary_key(summary) != _summary_key(
                        graph.summaries.get(qname)):
                    graph.summaries[qname] = summary
                    changed = True
            if not changed or not self_recursive:
                break
