"""RL202 RNG-discipline and RL3xx API-contract rules.

**RNG discipline.**  Determinism in this reproduction hangs on one
invariant: every entity draws from its *own* named stream fanned out of
the master seed (``world.rng.stream(name)``), received as a parameter.
Constructing a stream anywhere but the factory is RL601's finding (see
:mod:`repro.lint.sanitizer_rules`).  Two entities sharing one stream —
or requesting the same literal stream name, which seeds two generators
identically — couples their draw sequences so that adding a draw in one
silently shifts the other (RL202).

**API contract.**  The paper's measurement and countermeasure story
(§5-§6) runs entirely through the Graph API choke point: scope checks,
rate limits and the request log all live in ``graphapi/api.py``.
Collusion/honeypot code that writes to ``socialnet/platform.py``
directly (RL301), or launders the write through a helper defined
elsewhere (RL302), bypasses the very instrumentation the experiments
measure.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.rules import ModuleContext, ProjectRule, Rule
from repro.lint.summaries import platform_mutation_calls
from repro.lint.taint import terminal_base

#: Paths whose code simulates the abusive parties of the paper.
ABUSE_PREFIXES = ("repro/collusion/", "repro/honeypot/")

#: The sanctioned mutation route; RL302 never flags calls into it.
_SANCTIONED_PREFIXES = ("repro/graphapi/",) + ABUSE_PREFIXES


class StreamSharingRule(ProjectRule):
    """RL202 — cross-entity RNG stream sharing.

    Three shapes, in decreasing order of subtlety:

    * the same literal stream name requested by two different owners —
      ``RngFactory.stream`` seeds by name, so both draw *identical*
      sequences;
    * an entity handing ``self.rng`` to another entity's constructor;
    * code reaching into another object's stream (``other.rng`` where
      the base is neither ``self`` nor the world).
    """

    rule_id = "RL202"
    severity = Severity.WARNING
    description = "RNG stream shared across entities"
    hint = ("each entity draws from its own named stream: fan a fresh "
            "one out of world.rng.stream(name) instead of sharing")

    def run_project(self, graph) -> Iterator[Finding]:
        by_name: Dict[str, List[Tuple[str, ModuleContext, ast.Call]]] = {}
        for path in sorted(graph.by_path):
            info = graph.by_path[path]
            ctx = info.ctx
            yield from self._local_checks(ctx)
            for call in ast.walk(ctx.tree):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if (isinstance(func, ast.Attribute)
                        and func.attr == "stream" and call.args
                        and isinstance(call.args[0], ast.Constant)
                        and isinstance(call.args[0].value, str)):
                    owner = f"{path}:{self._owner_of(ctx, call)}"
                    by_name.setdefault(call.args[0].value, []).append(
                        (owner, ctx, call))
        for name in sorted(by_name):
            sites = by_name[name]
            owners = {owner for owner, _ctx, _call in sites}
            if len(owners) < 2:
                continue
            for owner, ctx, call in sites:
                others = sorted(o for o in owners if o != owner)
                yield ctx.finding(
                    self, call,
                    f"RNG stream name '{name}' is also requested by "
                    f"{others[0]} — identical seeds, identical draws")

    # ------------------------------------------------------------------
    def _local_checks(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._handoff(ctx, node)
            elif isinstance(node, ast.Attribute):
                if (node.attr in ("rng", "_rng")
                        and isinstance(node.ctx, ast.Load)):
                    base = terminal_base(node.value)
                    if base is not None and base not in ("self", "cls",
                                                         "world"):
                        yield ctx.finding(
                            self, node,
                            f"reaches into another entity's RNG stream "
                            f"({base}.{node.attr})")

    def _handoff(self, ctx: ModuleContext,
                 call: ast.Call) -> Iterator[Finding]:
        func = call.func
        callee = (func.id if isinstance(func, ast.Name)
                  else func.attr if isinstance(func, ast.Attribute)
                  else None)
        if callee is None or not callee[:1].isupper():
            return      # constructor heuristic: CamelCase callee
        values = list(call.args) + [kw.value for kw in call.keywords]
        for value in values:
            if (isinstance(value, ast.Attribute)
                    and value.attr in ("rng", "_rng")
                    and terminal_base(value.value) == "self"):
                yield ctx.finding(
                    self, value,
                    f"hands this entity's own stream (self.{value.attr}) "
                    f"to {callee}; two entities would share one draw "
                    "sequence")

    @staticmethod
    def _owner_of(ctx: ModuleContext, node: ast.AST) -> str:
        current = ctx.parents.get(id(node))
        function: Optional[str] = None
        while current is not None:
            if isinstance(current, ast.ClassDef):
                return current.name
            if (function is None
                    and isinstance(current, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))):
                function = current.name
            current = ctx.parents.get(id(current))
        return function or "<module>"


class ApiContractRule(Rule):
    """RL301 — collusion/honeypot code writing to the platform directly."""

    rule_id = "RL301"
    severity = Severity.ERROR
    description = "direct platform mutation bypassing the Graph API"
    hint = ("platform writes from abusive-party code must go through "
            "graphapi/api.py so scope checks, rate limits and request "
            "logging apply (that instrumentation is what §5-§6 measure)")

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.path.startswith(ABUSE_PREFIXES):
            return
        for call in platform_mutation_calls(ctx.tree):
            yield ctx.finding(
                self, call,
                f"direct platform write .{call.func.attr}() bypasses "
                "the Graph API choke point")


class IndirectMutationRule(ProjectRule):
    """RL302 — platform writes laundered through an outside helper."""

    rule_id = "RL302"
    severity = Severity.WARNING
    description = "platform mutation reached through a helper"
    hint = ("the called helper writes to the platform directly; route "
            "the write through graphapi/api.py or move the helper "
            "behind it")

    def run_project(self, graph) -> Iterator[Finding]:
        for path in sorted(graph.by_path):
            if not path.startswith(ABUSE_PREFIXES):
                continue
            info = graph.by_path[path]
            for local in sorted(info.functions):
                fn = info.functions[local]
                for node in ast.walk(fn.node):
                    if not isinstance(node, ast.Call):
                        continue
                    callee = graph.resolve_call(info, fn, node)
                    if callee is None:
                        continue
                    if callee.path.startswith(_SANCTIONED_PREFIXES):
                        continue
                    summary = graph.summaries.get(callee.qname)
                    if summary is None or not summary.mutates_platform:
                        continue
                    writes = ", ".join(sorted(summary.mutates_platform))
                    yield info.ctx.finding(
                        self, node,
                        f"calls {callee.qname}() which writes to the "
                        f"platform directly ({writes})")
