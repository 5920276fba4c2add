"""The RL001–RL005 rule visitors.

Each rule consumes a :class:`ModuleContext` (parsed tree, source lines,
normalised path, import-alias table, parent map) and yields
:class:`Finding`s.  Name resolution is import-based: ``t.monotonic()``
is flagged only when ``t`` was bound by ``import time as t``, which
keeps local variables that merely *shadow* module names from false-
positiving.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding, Severity

#: Per-rule path prefixes where the rule is intentionally off.  The
#: perf shell is exempt from RL001 only: it and the span tracer
#: measure real wall clock by design.
DEFAULT_ALLOWLIST: Dict[str, Tuple[str, ...]] = {
    "RL001": ("repro/perf/", "repro/telemetry/"),
    # The factory is the one place a stream is born.
    "RL601": ("repro/sim/rng.py",),
}


@dataclass
class ModuleContext:
    """Everything a rule needs to analyse one module."""

    path: str                       # normalised posix path
    tree: ast.Module
    lines: Sequence[str]            # raw source lines (1-indexed via idx-1)
    aliases: Dict[str, str] = field(default_factory=dict)
    parents: Dict[int, ast.AST] = field(default_factory=dict)
    module_names: frozenset = frozenset()   # module-level defs/assigns
    #: Back-reference to the ProjectGraph, set once per engine run so
    #: per-module rules can consult cross-module facts (summaries,
    #: exception hierarchy).  None when linting a module in isolation.
    project: Optional[object] = None

    @classmethod
    def build(cls, path: str, source: str) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        aliases: Dict[str, str] = {}
        module_names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    if alias.name != "*":
                        aliases[alias.asname or alias.name] = (
                            f"{node.module}.{alias.name}")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                module_names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        module_names.add(target.id)
        parents: Dict[int, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                parents[id(child)] = parent
        return cls(path=path, tree=tree, lines=source.splitlines(),
                   aliases=aliases, parents=parents,
                   module_names=frozenset(module_names))

    # ------------------------------------------------------------------
    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted origin of a Name/Attribute chain, via the import table.

        ``t.monotonic`` with ``import time as t`` -> ``"time.monotonic"``;
        an unimported base name resolves to ``None``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))

    def snippet(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: "Rule", node: ast.AST, message: str,
                hint: Optional[str] = None) -> Finding:
        lineno = getattr(node, "lineno", 1)
        return Finding(path=self.path, line=lineno,
                       col=getattr(node, "col_offset", 0) + 1,
                       rule=rule.rule_id, severity=rule.severity,
                       message=message,
                       hint=rule.hint if hint is None else hint,
                       snippet=self.snippet(lineno))


class Rule:
    """Base class: subclasses set ids/severity and implement ``run``."""

    rule_id: str = "RL000"
    severity: Severity = Severity.ERROR
    description: str = ""
    hint: str = ""

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def descriptions(self) -> Dict[str, str]:
        """Rule id -> short description for every id this rule emits."""
        return {self.rule_id: self.description}


class ProjectRule(Rule):
    """A rule that needs the whole project graph at once.

    The engine calls :meth:`run_project` exactly once per run, after
    every module has been parsed and the graph linked; ``run`` is never
    invoked for these rules.
    """

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())

    def run_project(self, graph) -> Iterator[Finding]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# RL001 — wall clock
# ----------------------------------------------------------------------
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.sleep",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


class WallClockRule(Rule):
    rule_id = "RL001"
    severity = Severity.ERROR
    description = "wall-clock reads outside the perf shell"
    hint = ("simulation time must come from the SimClock "
            "(world.clock.now()); wall timing belongs in repro/perf/")

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.resolve(node.func)
            if dotted in _WALL_CLOCK:
                yield ctx.finding(self, node,
                                  f"wall-clock call {dotted}()")


# ----------------------------------------------------------------------
# RL002 — global / unseeded randomness
# ----------------------------------------------------------------------
_RANDOM_MODULE_FUNCS = frozenset({
    "random", "randint", "randrange", "randbytes", "choice", "choices",
    "shuffle", "sample", "uniform", "seed", "getstate", "setstate",
    "getrandbits", "gauss", "normalvariate", "lognormvariate",
    "expovariate", "vonmisesvariate", "betavariate", "paretovariate",
    "weibullvariate", "triangular", "binomialvariate",
})
_NUMPY_RANDOM_FUNCS = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample",
    "choice", "shuffle", "permutation", "uniform", "normal", "bytes",
})


class GlobalRandomRule(Rule):
    rule_id = "RL002"
    severity = Severity.ERROR
    description = "global or unseeded randomness"
    hint = ("draw from a named stream (world.rng.stream(name)) or seed "
            "explicitly: random.Random(derive_seed(master, name))")

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.resolve(node.func)
            if dotted is None:
                continue
            if dotted == "random.Random":
                if not node.args and not node.keywords:
                    yield ctx.finding(
                        self, node,
                        "random.Random() without a seed draws from OS "
                        "entropy")
            elif dotted in ("random.SystemRandom", "secrets.SystemRandom"):
                yield ctx.finding(self, node,
                                  f"{dotted} is OS entropy by definition")
            elif (dotted.startswith("random.")
                  and dotted.split(".", 1)[1] in _RANDOM_MODULE_FUNCS):
                yield ctx.finding(
                    self, node,
                    f"module-level {dotted}() uses the shared global "
                    "random state")
            elif dotted.startswith("numpy.random."):
                tail = dotted.split(".", 2)[2]
                if tail in _NUMPY_RANDOM_FUNCS:
                    yield ctx.finding(
                        self, node,
                        f"{dotted}() uses numpy's global random state")
                elif (tail in ("default_rng", "RandomState")
                      and not node.args and not node.keywords):
                    yield ctx.finding(
                        self, node,
                        f"{dotted}() without a seed draws from OS entropy")


# ----------------------------------------------------------------------
# RL003 — nondeterministic ordering
# ----------------------------------------------------------------------
_LISTING_CALLS = frozenset({
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
})
_ORDER_CONSUMERS = frozenset({"list", "tuple", "enumerate", "reversed",
                              "iter"})


class OrderingRule(Rule):
    rule_id = "RL003"
    severity = Severity.WARNING
    description = "nondeterministic ordering feeding iteration"
    hint = ("wrap the source in sorted(...) with an explicit key, or "
            "iterate an insertion-ordered structure instead")

    # -- helpers -------------------------------------------------------
    def _is_unordered(self, ctx: ModuleContext, node: ast.AST) -> bool:
        if isinstance(node, ast.Set):
            return True
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")
                and node.func.id not in ctx.aliases
                and node.func.id not in ctx.module_names):
            return True
        return False

    @staticmethod
    def _self_attr(node: ast.AST) -> Optional[str]:
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return node.attr
        return None

    def _set_attributes(self, ctx: ModuleContext) -> Dict[int, Set[str]]:
        """Per class (keyed by node id): the ``self.X`` attributes the
        class assigns a set literal or a ``set()``/``frozenset()``
        call."""
        out: Dict[int, Set[str]] = {}
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            names: Set[str] = set()
            for node in ast.walk(cls):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                else:
                    continue
                if node.value is None or not self._is_unordered(
                        ctx, node.value):
                    continue
                names.update(name for name in map(self._self_attr, targets)
                              if name is not None)
            if names:
                out[id(cls)] = names
        return out

    def _is_set_attribute(self, ctx: ModuleContext, node: ast.AST,
                          set_attrs: Dict[int, Set[str]]) -> bool:
        """``node`` is ``self.X`` and its enclosing class makes X a set."""
        name = self._self_attr(node)
        if name is None:
            return False
        owner = ctx.parents.get(id(node))
        while owner is not None and not isinstance(owner, ast.ClassDef):
            owner = ctx.parents.get(id(owner))
        return owner is not None and name in set_attrs.get(id(owner), ())

    def _in_sorted(self, ctx: ModuleContext, node: ast.AST) -> bool:
        parent = ctx.parents.get(id(node))
        return (isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in ("sorted", "min", "max", "sum",
                                       "len", "any", "all", "set",
                                       "frozenset")
                and node in parent.args)

    def _is_id_key(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name) and node.id == "id":
            return True
        if isinstance(node, ast.Lambda):
            body = node.body
            return (isinstance(body, ast.Call)
                    and isinstance(body.func, ast.Name)
                    and body.func.id == "id")
        return False

    # -- the pass ------------------------------------------------------
    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        set_attrs = self._set_attributes(ctx)
        for node in ast.walk(ctx.tree):
            # set literals, set()/frozenset() calls and set-valued
            # attributes iterated directly
            iters: List[ast.AST] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, ast.comprehension):
                iters.append(node.iter)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in _ORDER_CONSUMERS and node.args):
                iters.append(node.args[0])
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "join" and node.args):
                iters.append(node.args[0])
            for candidate in iters:
                if self._is_unordered(ctx, candidate):
                    yield ctx.finding(
                        self, candidate,
                        "iteration over an unordered set perturbs "
                        "downstream order")
                elif self._is_set_attribute(ctx, candidate, set_attrs):
                    # Iterated straight into an order-free reducer
                    # (sorted, len, ...), a set attribute leaks no order.
                    consumer = (ctx.parents.get(id(node))
                                if isinstance(node, ast.comprehension)
                                else node)
                    if not self._in_sorted(ctx, consumer):
                        yield ctx.finding(
                            self, candidate,
                            f"iteration over set attribute "
                            f"self.{candidate.attr} perturbs downstream "
                            f"order")
            # id()-keyed sorts
            if isinstance(node, ast.Call):
                is_sort = ((isinstance(node.func, ast.Name)
                            and node.func.id == "sorted")
                           or (isinstance(node.func, ast.Attribute)
                               and node.func.attr == "sort"))
                if is_sort:
                    for keyword in node.keywords:
                        if (keyword.arg == "key"
                                and self._is_id_key(keyword.value)):
                            yield ctx.finding(
                                self, node,
                                "sort keyed on id() depends on object "
                                "addresses")
            # unsorted directory listings
            if isinstance(node, ast.Call):
                dotted = ctx.resolve(node.func)
                is_listing = dotted in _LISTING_CALLS or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "iterdir")
                if is_listing and not self._in_sorted(ctx, node):
                    parent = ctx.parents.get(id(node))
                    if isinstance(parent, (ast.Assign, ast.AnnAssign,
                                           ast.AugAssign, ast.Return)):
                        # Assigned/returned listings are out of scope for
                        # this syntactic pass (no dataflow tracking).
                        continue
                    label = dotted or "Path.iterdir"
                    yield ctx.finding(
                        self, node,
                        f"{label}() order is filesystem-dependent; "
                        "wrap in sorted(...)")


# ----------------------------------------------------------------------
# RL004 — entropy / environment leaks
# ----------------------------------------------------------------------
_ENTROPY_CALLS = frozenset({
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
    "os.getenv",
})


class EntropyRule(Rule):
    rule_id = "RL004"
    severity = Severity.ERROR
    description = "entropy or environment leaking into sim state"
    hint = ("derive identifiers from the sim RNG/ids registry and "
            "stable digests (hashlib.blake2b), not process entropy or "
            "the environment")

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        hash_shadowed = ("hash" in ctx.aliases
                         or "hash" in ctx.module_names)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                dotted = ctx.resolve(node.func)
                if dotted in _ENTROPY_CALLS:
                    yield ctx.finding(self, node,
                                      f"{dotted}() leaks process "
                                      "entropy/environment into the sim")
                elif dotted is not None and dotted.startswith("secrets."):
                    yield ctx.finding(self, node,
                                      f"{dotted}() is CSPRNG entropy")
                elif (isinstance(node.func, ast.Name)
                      and node.func.id == "hash" and not hash_shadowed):
                    yield ctx.finding(
                        self, node,
                        "builtin hash() is salted per process "
                        "(PYTHONHASHSEED)")
            elif isinstance(node, ast.Attribute):
                if (node.attr == "environ"
                        and ctx.resolve(node) == "os.environ"
                        and isinstance(node.ctx, ast.Load)):
                    yield ctx.finding(
                        self, node,
                        "os.environ read makes sim behaviour depend on "
                        "the caller's environment")


# ----------------------------------------------------------------------
# RL005 — exception discipline
# ----------------------------------------------------------------------
_LOGGING_ATTRS = frozenset({"warn", "warning", "error", "exception",
                            "critical", "debug", "info", "log"})


class ExceptionRule(Rule):
    rule_id = "RL005"
    severity = Severity.WARNING
    description = "broad exception handler that swallows context"
    hint = ("narrow the exception type, re-raise, use the bound "
            "exception, log it, or annotate with "
            "'# reprolint: disable=RL005 — why'")

    def _is_broad(self, ctx: ModuleContext,
                  handler: ast.ExceptHandler) -> Optional[str]:
        if handler.type is None:
            return "bare except:"
        nodes = (handler.type.elts if isinstance(handler.type, ast.Tuple)
                 else [handler.type])
        for node in nodes:
            if isinstance(node, ast.Name) and node.id in ("Exception",
                                                          "BaseException"):
                return f"except {node.id}"
        return None

    def _swallows(self, handler: ast.ExceptHandler) -> bool:
        bound = handler.name
        for node in ast.walk(ast.Module(body=handler.body,
                                        type_ignores=[])):
            if isinstance(node, ast.Raise):
                return False
            if (bound and isinstance(node, ast.Name) and node.id == bound
                    and isinstance(node.ctx, ast.Load)):
                return False
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in _LOGGING_ATTRS):
                    return False
        return True

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._is_broad(ctx, node)
            if broad and self._swallows(node):
                yield ctx.finding(
                    self, node,
                    f"{broad} swallows the exception without re-raise, "
                    "use, or logging")


def default_rules() -> List[Rule]:
    # Imported here, not at module top: taint/contracts import this
    # module for ModuleContext/Rule, so a top-level import would cycle.
    from repro.lint.contracts import (
        ApiContractRule,
        IndirectMutationRule,
        StreamSharingRule,
    )
    from repro.lint.sanitizer_rules import sanitizer_rules
    from repro.lint.taint import TokenTaintRule
    from repro.lint.telemetry_rules import MetricLabelRule

    return [WallClockRule(), GlobalRandomRule(), OrderingRule(),
            EntropyRule(), ExceptionRule(),
            TokenTaintRule(), StreamSharingRule(), ApiContractRule(),
            IndirectMutationRule(), MetricLabelRule(),
            *sanitizer_rules()]
