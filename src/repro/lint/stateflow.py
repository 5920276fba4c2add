"""RL402 — shard delta coverage and purity.

Sharding is only byte-identical to a serial run if every piece of
state a forked shard child mutates comes home.  ``*Delta`` dataclasses
must have every field passed explicitly at each construction site and
consumed somewhere in the defining module (a field the merge never
reads is state the parent silently drops).  In addition, the body of
an ``os.fork()`` child branch — plus every project function it
transitively calls — must not write parent-visible state outside the
delta: no named-file writes, no ``pickle.dump``-style serialisation to
handles, no module-global mutation (the fixpoint's transitive
``global_writes`` fact, :mod:`repro.lint.fixpoint`).  ``os.fdopen`` on
an inherited pipe fd is the sanctioned channel home and is exempt.

That a day checkpoint carries every part's state is a run-time check,
not a rule here: ``tests/test_state_parts.py`` round-trips a pickled
checkpoint into a rebuilt twin and compares every part attribute by
attribute.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.rules import ModuleContext, ProjectRule
from repro.lint.taint import terminal_base

#: Filesystem mutations a forked shard child must not perform.
_OS_FILE_MUTATIONS = frozenset({
    "os.remove", "os.unlink", "os.rename", "os.replace", "os.truncate",
    "os.makedirs", "os.mkdir", "os.rmdir",
})
_DUMP_TO_HANDLE = frozenset({"pickle.dump", "json.dump", "marshal.dump"})
_WRITE_MODES = frozenset("wax+")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = (target.id if isinstance(target, ast.Name)
                else target.attr if isinstance(target, ast.Attribute)
                else None)
        if name == "dataclass":
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> List[str]:
    fields: List[str] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name):
            fields.append(stmt.target.id)
    return fields


def _ctor_missing_fields(call: ast.Call,
                         fields: List[str]) -> List[str]:
    """Fields not passed explicitly; empty when the call is dynamic."""
    provided: Set[str] = set()
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return []
        if index < len(fields):
            provided.add(fields[index])
    for keyword in call.keywords:
        if keyword.arg is None:
            return []
        provided.add(keyword.arg)
    return [name for name in fields if name not in provided]


def _attr_loads(tree: ast.AST) -> Set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _construction_sites(graph, cls) -> Iterator[Tuple]:
    """(module info, enclosing fn, call) for every resolved ctor."""
    for module in sorted(graph.modules):
        info = graph.modules[module]
        for fn in info.functions.values():
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Call):
                    if graph.resolve_class(info, node) is cls:
                        yield info, fn, node


class ShardDeltaRule(ProjectRule):
    """RL402 — shard deltas are complete and shard children are pure."""

    rule_id = "RL402"
    severity = Severity.ERROR
    description = ("shard deltas must carry every field and forked "
                   "children must not write parent-visible state")
    hint = ("route child state home through the delta (and consume "
            "every delta field in the merge), or pragma the sanctioned "
            "channel with its justification")

    def run_project(self, graph) -> Iterator[Finding]:
        for module in sorted(graph.modules):
            info = graph.modules[module]
            yield from self._check_deltas(graph, info)
            yield from self._check_fork_purity(graph, info)

    # -- *Delta dataclasses --------------------------------------------
    def _check_deltas(self, graph, info) -> Iterator[Finding]:
        """Every ``*Delta`` field passed explicitly at each
        construction site and consumed somewhere in the defining
        module."""
        targets = [cls for name, cls in sorted(info.classes.items())
                   if name.endswith("Delta")
                   and isinstance(cls.node, ast.ClassDef)
                   and _is_dataclass(cls.node)]
        if not targets:
            return
        module_reads = _attr_loads(info.ctx.tree)
        for cls in targets:
            fields = _dataclass_fields(cls.node)
            for field_name in fields:
                if field_name not in module_reads:
                    yield info.ctx.finding(
                        self, cls.node,
                        f"shard delta field '{cls.name}.{field_name}' "
                        f"is captured but never consumed in "
                        f"{info.module} — restore/merge silently drops "
                        f"it")
            for ctor_info, _caller, call in _construction_sites(graph,
                                                                cls):
                for field_name in _ctor_missing_fields(call, fields):
                    yield ctor_info.ctx.finding(
                        self, call,
                        f"shard delta field '{cls.name}.{field_name}' "
                        f"not passed explicitly at this construction "
                        f"site (silently defaulted)")

    # -- forked-child purity -------------------------------------------
    def _check_fork_purity(self, graph, info) -> Iterator[Finding]:
        for fn in sorted(info.functions.values(),
                         key=lambda f: f.qname):
            fork_names = self._fork_result_names(info, fn.node)
            if not fork_names:
                continue
            for branch in self._child_branches(fn.node, fork_names):
                yield from self._check_child_branch(
                    graph, info, fn, branch)

    @staticmethod
    def _fork_result_names(info, fn_node: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(fn_node):
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and info.ctx.resolve(node.value.func) == "os.fork"):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    @staticmethod
    def _child_branches(fn_node: ast.AST,
                        fork_names: Set[str]) -> Iterator[ast.If]:
        for node in ast.walk(fn_node):
            if not isinstance(node, ast.If):
                continue
            test = node.test
            if (isinstance(test, ast.Compare)
                    and isinstance(test.left, ast.Name)
                    and test.left.id in fork_names
                    and len(test.ops) == 1
                    and isinstance(test.ops[0], ast.Eq)
                    and len(test.comparators) == 1
                    and isinstance(test.comparators[0], ast.Constant)
                    and test.comparators[0].value == 0):
                yield node

    def _check_child_branch(self, graph, info, fn,
                            branch: ast.If) -> Iterator[Finding]:
        body = ast.Module(body=list(branch.body), type_ignores=[])
        for node, why in self._impure_ops(info.ctx, body):
            yield info.ctx.finding(
                self, node,
                f"forked shard child {why} — parent-visible state "
                f"must travel through the delta")
        # Transitive: project functions the child calls.
        for call in ast.walk(body):
            if not isinstance(call, ast.Call):
                continue
            callee = graph.resolve_call(info, fn, call)
            if callee is None:
                continue
            for qname, node, why in self._closure_impurity(
                    graph, callee):
                yield info.ctx.finding(
                    self, call,
                    f"forked shard child {why} via {qname}() — "
                    f"parent-visible state must travel through the "
                    f"delta")

    def _closure_impurity(self, graph, root
                          ) -> Iterator[Tuple[str, ast.AST, str]]:
        seen: Set[str] = set()
        queue = [root.qname]
        while queue:
            qname = queue.pop()
            if qname in seen:
                continue
            seen.add(qname)
            fn = graph.functions.get(qname)
            if fn is None:
                continue
            fn_info = graph.by_path.get(fn.path)
            if fn_info is not None:
                for node, why in self._impure_ops(
                        fn_info.ctx, fn.node):
                    yield qname, node, why
            summary = graph.summaries.get(qname)
            if summary is not None and summary.global_writes:
                names = ", ".join(sorted(summary.global_writes))
                yield (qname, fn.node,
                       f"mutates module state ({names})")
                # global_writes is already transitive; no need to
                # descend for this fact, but file ops still need the
                # body scan below.
            for callee in sorted(graph.calls.get(qname, ())):
                queue.append(callee)

    @staticmethod
    def _impure_ops(ctx: ModuleContext,
                    tree: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            dotted = ctx.resolve(func)
            if dotted in _OS_FILE_MUTATIONS:
                yield node, f"calls {dotted}"
                continue
            if dotted in _DUMP_TO_HANDLE:
                yield node, f"serialises through {dotted}"
                continue
            if isinstance(func, ast.Attribute):
                if (func.attr == "dump"
                        and terminal_base(func.value) in (
                            "pickle", "json", "marshal")):
                    yield node, "serialises through a dump-to-handle"
                    continue
                if func.attr in ("write_text", "write_bytes"):
                    yield node, f"writes a file via .{func.attr}()"
                    continue
            if (isinstance(func, ast.Name) and func.id == "open"
                    and _open_mode_writes(node)):
                yield node, "opens a file for writing"


def _open_mode_writes(call: ast.Call) -> bool:
    mode: Optional[ast.AST] = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return False
    return (isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and bool(set(mode.value) & _WRITE_MODES))
