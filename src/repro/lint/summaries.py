"""Function summaries for the project graph.

For every function in the tree we record the facts the cross-module
rules need:

* ``param_sink_flows`` — parameters whose value reaches a token sink
  (log / exception / persist) inside the body.  A *caller* passing a
  tainted value into such a parameter is flagged at the call site
  (RL10x "through a called helper").  Parameters whose very name marks
  them as token-bearing (``access_token`` …) are excluded — those
  bodies are flagged directly at the definition site.
* ``taint_through`` — parameters whose taint survives into the return
  value, so ``digest = fmt(token)`` keeps ``digest`` tainted.
* ``returns_taint`` — the return value carries taint sourced *inside*
  the body (a token-store read, a minted token), independent of any
  parameter.
* ``mutates_platform`` — platform mutation methods the body invokes
  (``*.platform.create_post(...)``), which RL302 uses to flag
  collusion/honeypot code that launders a platform write through a
  helper outside the Graph API.

Summaries are computed to interprocedural convergence by
:mod:`repro.lint.fixpoint` (SCC-ordered, callees first), so every fact
sees through arbitrarily deep helper chains.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set

from repro.lint.taint import attr_chain

#: State-changing methods on the simulated platform.  Reads (feeds,
#: friend lists, page fan-out) are free; writes must flow through the
#: Graph API so scope checks, rate limits and request logging apply.
PLATFORM_MUTATIONS = frozenset({
    "register_account", "suspend_account", "reinstate_account",
    "create_page", "create_post", "like_post", "remove_like",
    "like_page", "comment_on_post", "befriend",
})


def platform_mutation_calls(node: ast.AST) -> Iterator[ast.Call]:
    """Call sites under ``node`` that write to the platform directly.

    Matches ``<anything>.platform.<mutation>(...)`` and
    ``<anything>._platform.<mutation>(...)`` — the attribute chain must
    actually pass through a ``platform`` segment, so ``api.create_post``
    (the sanctioned route) never matches.
    """
    for child in ast.walk(node):
        if not isinstance(child, ast.Call):
            continue
        func = child.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr not in PLATFORM_MUTATIONS:
            continue
        chain = attr_chain(func.value)
        if any(part in ("platform", "_platform") for part in chain):
            yield child


@dataclass
class FunctionSummary:
    """What one function does with its parameters and to the platform."""

    qname: str
    params: List[str]
    #: param name -> sink kinds ("log" | "exception" | "persist")
    param_sink_flows: Dict[str, Set[str]] = field(default_factory=dict)
    #: params whose taint reaches the return value
    taint_through: Set[str] = field(default_factory=set)
    #: platform mutation methods invoked in the body or any callee
    mutates_platform: Set[str] = field(default_factory=set)
    #: return value carries taint sourced inside the body
    returns_taint: bool = False
