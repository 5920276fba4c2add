"""RL4xx — state-coverage rules over the durability layer.

Resume and sharding are only byte-identical if every piece of mutable
state crosses the capture/restore boundary.  These rules prove that
statically, on top of the mutation-effect lattice the fixpoint
(:mod:`repro.lint.fixpoint`) computes:

* **RL401** — snapshot coverage.  Any class exposing an
  ``export_*``/``install_*`` protocol (the campaign's state parts) must
  read every mutable attribute in the export path and write it back in
  the install path.  ``self.__dict__``-based snapshots cover everything
  except the names listed in a class-level constant the export reads
  (a skip list); skipped-but-mutated attributes are flagged so every
  exception carries an explicit pragma justification.  ``*Checkpoint``
  dataclasses must have every field passed explicitly at each
  construction site and consumed somewhere in the defining module.
* **RL402** — shard delta coverage and purity.  ``*Delta`` dataclasses
  get the same explicit-construction and consumption checks (a field
  the merge never reads is state the parent silently drops).  In
  addition, the body of an ``os.fork()`` child branch — plus every
  project function it transitively calls — must not write
  parent-visible state outside the delta: no named-file writes, no
  ``pickle.dump``-style serialisation to handles, no module-global
  mutation.  ``os.fdopen`` on an inherited pipe fd is the sanctioned
  channel home and is exempt.
* **RL403** — journal codec discipline.  Inside ``repro/journal/``,
  payloads handed to a frame append must be produced by the approved
  codec (``encode_*`` functions, or ``json.dumps``) — never by raw
  ``repr()``/``pickle.dumps``/``marshal.dumps`` inline — and frame
  payloads must be decoded only inside ``decode_*`` functions (no
  stray ``literal_eval``/``pickle.loads``/``eval``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.rules import ModuleContext, ProjectRule
from repro.lint.taint import attr_chain, terminal_base

#: Filesystem mutations a forked shard child must not perform.
_OS_FILE_MUTATIONS = frozenset({
    "os.remove", "os.unlink", "os.rename", "os.replace", "os.truncate",
    "os.makedirs", "os.mkdir", "os.rmdir",
})
_DUMP_TO_HANDLE = frozenset({"pickle.dump", "json.dump", "marshal.dump"})
_WRITE_MODES = frozenset("wax+")

#: Frame-append method names in the journal layer.
_FRAME_APPENDS = frozenset({"_write_frame", "write_frame", "append_frame"})
#: Encoders banned outside ``encode_*`` codec functions.
_RAW_ENCODERS_DOTTED = frozenset({"pickle.dumps", "marshal.dumps"})
#: Decoders banned outside ``decode_*`` codec functions.
_RAW_DECODERS_DOTTED = frozenset({
    "ast.literal_eval", "pickle.loads", "marshal.loads",
})


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


def _self_attr_loads(fn_node: ast.AST) -> Set[str]:
    reads: Set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load):
            chain = attr_chain(node)
            if len(chain) >= 2 and chain[0] == "self":
                reads.add(chain[1])
    return reads


def _class_const_collections(node: ast.ClassDef) -> Dict[str, Set[str]]:
    """Class-body names bound to literal string collections."""
    consts: Dict[str, Set[str]] = {}
    for stmt in node.body:
        if not isinstance(stmt, ast.Assign):
            continue
        value = stmt.value
        if (isinstance(value, ast.Call) and len(value.args) == 1
                and not value.keywords
                and isinstance(value.func, ast.Name)
                and value.func.id in ("frozenset", "set", "tuple",
                                      "list")):
            value = value.args[0]
        if not isinstance(value, (ast.Set, ast.Tuple, ast.List)):
            continue
        if not all(isinstance(e, ast.Constant)
                   and isinstance(e.value, str) for e in value.elts):
            continue
        names = {e.value for e in value.elts}
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                consts[target.id] = names
    return consts


class _ClassView:
    """One class plus its method FunctionInfos and summaries."""

    def __init__(self, graph, info, cls) -> None:
        self.graph = graph
        self.info = info
        self.cls = cls
        self.methods = {
            fn.name: fn for fn in info.functions.values()
            if fn.cls == cls.name
        }

    def summary(self, method_name: str):
        fn = self.methods.get(method_name)
        if fn is None:
            return None
        return self.graph.summaries.get(fn.qname)

    def closure(self, method_name: str) -> List[str]:
        """Same-class methods reachable from ``method_name`` via
        ``self.*()`` calls (the resolved call graph)."""
        prefix = f"{self.info.module}.{self.cls.name}."
        seen: Set[str] = set()
        queue = [method_name]
        order: List[str] = []
        while queue:
            name = queue.pop()
            if name in seen or name not in self.methods:
                continue
            seen.add(name)
            order.append(name)
            qname = self.methods[name].qname
            for callee in sorted(self.graph.calls.get(qname, ())):
                if callee.startswith(prefix):
                    queue.append(callee[len(prefix):])
        return order


class SnapshotCoverageRule(ProjectRule):
    """RL401 — mutable state must cross the snapshot boundary."""

    rule_id = "RL401"
    severity = Severity.ERROR
    description = ("snapshot-protocol classes must export and install "
                   "every mutable attribute")
    hint = ("thread the attribute through export_*/install_* (and "
            "register the class in CountermeasureCampaign.state_parts()), "
            "or pragma it with the reason it is safe to drop across a "
            "resume")

    def run_project(self, graph) -> Iterator[Finding]:
        for module in sorted(graph.modules):
            info = graph.modules[module]
            yield from self._check_classes(graph, info)
            yield from self._check_checkpoint_dataclasses(graph, info)

    # -- export_*/install_* protocol classes ---------------------------
    def _check_classes(self, graph, info) -> Iterator[Finding]:
        for cls_name in sorted(info.classes):
            cls = info.classes[cls_name]
            view = _ClassView(graph, info, cls)
            exports = sorted(n for n in view.methods
                             if n.startswith("export"))
            installs = sorted(n for n in view.methods
                              if n.startswith("install"))
            if not exports or not installs:
                continue
            snapshot_methods = set(exports) | set(installs)
            mutated: Set[str] = set()
            for name in sorted(view.methods):
                if name == "__init__" or name in snapshot_methods:
                    continue
                summary = view.summary(name)
                if summary is not None:
                    mutated |= summary.self_writes
            consts = _class_const_collections(cls.node)
            export_reads: Set[str] = set()
            for name in exports:
                for member in view.closure(name):
                    export_reads |= _self_attr_loads(
                        view.methods[member].node)
            install_writes: Set[str] = set()
            for name in installs:
                summary = view.summary(name)
                if summary is not None:
                    install_writes |= summary.self_writes
                install_writes |= {
                    read for read in _self_attr_loads(
                        view.methods[name].node)
                    if read == "__dict__"}
            skip: Set[str] = set()
            for const_name, names in sorted(consts.items()):
                if const_name in export_reads | install_writes:
                    skip |= names
            export_dynamic = "__dict__" in export_reads
            install_dynamic = "__dict__" in install_writes
            for attr in sorted(mutated):
                if attr.startswith("__"):
                    continue
                export_ok = attr in export_reads or (
                    export_dynamic and attr not in skip)
                install_ok = attr in install_writes or (
                    install_dynamic and attr not in skip)
                if export_ok and install_ok:
                    continue
                missing = []
                if not export_ok:
                    missing.append(f"{'/'.join(exports)} read")
                if not install_ok:
                    missing.append(f"{'/'.join(installs)} write")
                yield info.ctx.finding(
                    self, cls.node,
                    f"mutable attribute '{attr}' of {cls.name} is not "
                    f"covered by the snapshot protocol (missing: "
                    f"{', '.join(missing)})")

    # -- *Checkpoint dataclasses ---------------------------------------
    def _check_checkpoint_dataclasses(self, graph,
                                      info) -> Iterator[Finding]:
        yield from _check_record_dataclasses(
            self, graph, info, suffix="Checkpoint", noun="checkpoint")


def _check_record_dataclasses(rule, graph, info, suffix: str,
                              noun: str) -> Iterator[Finding]:
    """Shared RL401/RL402 check for capture-record dataclasses:
    every field passed explicitly at each construction site, every
    field consumed somewhere in the defining module."""
    targets = [cls for name, cls in sorted(info.classes.items())
               if name.endswith(suffix)
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
                    rule, cls.node,
                    f"{noun} field '{cls.name}.{field_name}' is "
                    f"captured but never consumed in "
                    f"{info.module} — restore/merge silently drops it")
        for ctor_info, caller, call in _construction_sites(graph, cls):
            missing = _ctor_missing_fields(call, fields)
            for field_name in missing:
                yield ctor_info.ctx.finding(
                    rule, call,
                    f"{noun} field '{cls.name}.{field_name}' not "
                    f"passed explicitly at this construction site "
                    f"(silently defaulted)")


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
            yield from _check_record_dataclasses(
                self, graph, info, suffix="Delta", noun="shard delta")
            yield from self._check_fork_purity(graph, info)

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


class JournalCodecRule(ProjectRule):
    """RL403 — WAL frames round-trip through the approved codec."""

    rule_id = "RL403"
    severity = Severity.ERROR
    description = ("journal frame payloads must use the approved "
                   "codec, never inline repr/pickle round-trips")
    hint = ("build frame payloads with encode_*() (or json.dumps) and "
            "decode them only inside decode_*() codec functions")

    _SCOPE = "repro/journal/"

    def run_project(self, graph) -> Iterator[Finding]:
        for module in sorted(graph.modules):
            info = graph.modules[module]
            if not info.path.startswith(self._SCOPE):
                continue
            yield from self._check_module(info)

    def _check_module(self, info) -> Iterator[Finding]:
        codec_fns = {fn.node for fn in info.functions.values()
                     if fn.name.startswith(("encode_", "decode_"))}
        for fn in sorted(info.functions.values(),
                         key=lambda f: f.qname):
            if fn.node in codec_fns:
                continue
            yield from self._check_function(info.ctx, fn.node)
        # Module top level (rare, but decode loops can live there).
        top = ast.Module(
            body=[stmt for stmt in info.ctx.tree.body
                  if not isinstance(stmt, (ast.FunctionDef,
                                           ast.AsyncFunctionDef,
                                           ast.ClassDef))],
            type_ignores=[])
        yield from self._check_function(info.ctx, top)

    def _check_function(self, ctx: ModuleContext,
                        fn_node: ast.AST) -> Iterator[Finding]:
        assigns: Dict[str, List[ast.AST]] = {}
        for node in ast.walk(fn_node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigns.setdefault(target.id, []).append(
                            node.value)
        for node in ast.walk(fn_node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name)
                    else None)
            if name in _FRAME_APPENDS:
                for arg in node.args:
                    for origin, banned in self._raw_encodings(
                            ctx, arg, assigns):
                        yield ctx.finding(
                            self, origin,
                            f"frame payload built with raw {banned} "
                            f"outside the codec")
            for banned_node, banned in self._raw_decodes(ctx, node):
                yield ctx.finding(
                    self, banned_node,
                    f"frame payload decoded with raw {banned} outside "
                    f"a decode_*() codec function")

    @staticmethod
    def _raw_encodings(ctx: ModuleContext, arg: ast.AST,
                       assigns: Dict[str, List[ast.AST]]
                       ) -> Iterator[Tuple[ast.AST, str]]:
        trees: List[ast.AST] = [arg]
        if isinstance(arg, ast.Name):
            trees.extend(assigns.get(arg.id, ()))
        for tree in trees:
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name) and func.id == "repr":
                    yield node, "repr()"
                    continue
                dotted = ctx.resolve(func)
                if dotted in _RAW_ENCODERS_DOTTED:
                    yield node, f"{dotted}()"
                    continue
                if (isinstance(func, ast.Attribute)
                        and func.attr == "dumps"
                        and terminal_base(func.value) in (
                            "pickle", "marshal")):
                    yield node, f"{terminal_base(func.value)}.dumps()"

    @staticmethod
    def _raw_decodes(ctx: ModuleContext, call: ast.Call
                     ) -> Iterator[Tuple[ast.AST, str]]:
        func = call.func
        dotted = ctx.resolve(func)
        if dotted in _RAW_DECODERS_DOTTED:
            yield call, f"{dotted}()"
            return
        if isinstance(func, ast.Name):
            if func.id == "eval":
                yield call, "eval()"
            elif func.id == "literal_eval" and dotted is None:
                yield call, "literal_eval()"
        elif (isinstance(func, ast.Attribute)
              and func.attr in ("loads", "literal_eval")
              and terminal_base(func.value) in ("pickle", "marshal",
                                                "ast")):
            yield call, f"{terminal_base(func.value)}.{func.attr}()"
