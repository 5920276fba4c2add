"""Intraprocedural taint engine and the RL1xx token-hygiene rules.

The paper's core finding is that OAuth access tokens leak out of the
flows that minted them (§3-§4); the reproduction enforces the inverse
property on itself.  A *token value* — anything read from the token
store, an ``AccessToken.token`` / ``.access_token`` field, a token-DB
lookup, or a parameter named like a token string — must never reach a
**sink**: logging / ``warnings.warn`` (RL101), exception constructors
and the error-envelope renderer (RL102), or checkpoint / export
persistence (RL103).  Passing the value through a registered redactor
(``repro.oauth.redact.redact_token``) sanitises it.

The engine is a forward, flow-sensitive walk over one function (or the
module top level): assignments propagate origin labels, f-strings /
``%`` / ``+`` / ``str.format`` / slicing keep taint alive, unknown
calls drop it (no false positives from ``len(token)``), and registered
redactors clear it.  Interprocedural precision comes from the
function summaries of :mod:`repro.lint.summaries`, which
:mod:`repro.lint.fixpoint` solves to convergence over the call graph:
calling a helper whose parameter reaches a sink — through any chain of
further helpers — flags the call site, and helpers that return their
parameter's taint propagate it to the caller.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.rules import ModuleContext, Rule

#: Parameter / variable names that self-evidently carry a token string.
TOKEN_PARAM_NAMES = frozenset({
    "access_token", "token", "token_string", "token_str", "input_token",
    "exchange_token", "milked_token", "token_value", "bearer_token",
})

#: Attribute reads that yield a token value regardless of the base.
_TOKEN_ATTRS = frozenset({"token", "access_token"})

#: Terminal base names that denote the token store / token DB.
_TOKEN_STORE_BASES = frozenset({
    "tokens", "_tokens", "token_store", "tokenstore", "token_db",
    "_token_db",
})

#: Token-store methods whose result carries a token (string or
#: AccessToken object — an object's repr embeds the raw string).
_TOKEN_STORE_GETTERS = frozenset({
    "validate", "peek", "issue", "live_token_for", "get",
    "export_state", "export_delta",
})

#: Calls that mint or extract a token string wherever they appear.
_TOKEN_CALLS = frozenset({"token_from_fragment", "_mint_token_string"})

#: Registered redactors: passing a token through one clears its taint.
REDACTORS = frozenset({
    "repro.oauth.redact.redact_token",
    "repro.oauth.redact_token",
    "redact_token",
})

#: String methods that keep taint alive on their result.
_STR_PASSTHROUGH = frozenset({
    "format", "join", "strip", "lstrip", "rstrip", "upper", "lower",
    "replace", "encode", "decode", "ljust", "rjust", "casefold",
    "removeprefix", "removesuffix",
})

#: logger-ish base names for ``<base>.warning(...)`` style sinks.
_LOG_BASES = frozenset({"log", "logger", "_log", "_logger"})
_LOG_METHODS = frozenset({"debug", "info", "warning", "warn", "error",
                          "exception", "critical", "log"})

#: Persistence sinks (module-level dotted names).
_PERSIST_DOTTED = frozenset({
    "pickle.dump", "pickle.dumps", "json.dump", "json.dumps",
    "marshal.dump", "marshal.dumps",
})
_PERSIST_METHODS = frozenset({"writerow", "writerows", "write_text",
                              "write_bytes"})
_CHECKPOINT_BASES = ("checkpoint", "store")

_EXC_SUFFIXES = ("Error", "Exception", "Warning")


def attr_chain(node: ast.AST) -> List[str]:
    """``self.world.tokens`` -> ``["self", "world", "tokens"]``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    parts.reverse()
    return parts


def terminal_base(node: ast.AST) -> Optional[str]:
    """Last component of a call/attribute base expression, if named."""
    chain = attr_chain(node)
    return chain[-1] if chain else None


class TokenTaintSpec:
    """Sources, sanitizers and sinks for the RL1xx token-hygiene
    family."""

    def param_source(self, name: str) -> bool:
        return name in TOKEN_PARAM_NAMES

    def expr_source(self, node: ast.AST, ctx: ModuleContext) -> bool:
        if isinstance(node, ast.Attribute):
            return (node.attr in _TOKEN_ATTRS
                    and isinstance(node.ctx, ast.Load))
        if isinstance(node, ast.Subscript):
            base = terminal_base(node.value)
            return base in _TOKEN_STORE_BASES
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr in _TOKEN_CALLS:
                    return True
                if (func.attr in _TOKEN_STORE_GETTERS
                        and terminal_base(func.value)
                        in _TOKEN_STORE_BASES):
                    return True
            elif (isinstance(func, ast.Name)
                  and func.id in _TOKEN_CALLS):
                return True
        return False

    def is_sanitizer(self, call: ast.Call, ctx: ModuleContext) -> bool:
        dotted = ctx.resolve(call.func)
        if dotted in REDACTORS:
            return True
        func = call.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None)
        return name == "redact_token"

    def call_sink(self, call: ast.Call,
                  ctx: ModuleContext) -> Optional[str]:
        func = call.func
        dotted = ctx.resolve(func)
        # RL101 — logging / warnings
        if dotted is not None:
            root, _, tail = dotted.partition(".")
            if root == "logging" and tail.rsplit(".", 1)[-1] in _LOG_METHODS:
                return "log"
            if dotted == "warnings.warn":
                return "log"
            if dotted in _PERSIST_DOTTED:
                return "persist"
        if isinstance(func, ast.Attribute):
            if (func.attr in _LOG_METHODS
                    and terminal_base(func.value) in _LOG_BASES):
                return "log"
            if func.attr in _PERSIST_METHODS:
                return "persist"
            if func.attr in ("dump", "dumps"):
                base = terminal_base(func.value)
                if base in ("pickle", "json", "marshal"):
                    return "persist"
            if func.attr == "save":
                base = terminal_base(func.value) or ""
                if any(mark in base.lower()
                       for mark in _CHECKPOINT_BASES):
                    return "persist"
        # RL102 — exception constructors / envelope rendering
        callee = (dotted.rsplit(".", 1)[-1] if dotted is not None
                  else func.id if isinstance(func, ast.Name)
                  else func.attr if isinstance(func, ast.Attribute)
                  else None)
        if callee is not None:
            if callee == "error_envelope":
                return "exception"
            if callee.endswith(_EXC_SUFFIXES):
                return "exception"
            project = getattr(ctx, "project", None)
            if project is not None and project.is_exception_class(
                    dotted or callee):
                return "exception"
        return None


class TaintWalker:
    """Forward taint propagation over one function body.

    ``initial`` maps names to origin-label sets (origins are parameter
    names in summary mode, the generic ``"<source>"`` tag otherwise).
    After :meth:`walk`, :attr:`sink_hits` holds ``(node, kind,
    origins)`` triples and :attr:`return_origins` the labels that
    reached a ``return``.
    """

    GENERIC = "<source>"

    def __init__(self, ctx: ModuleContext, spec: TokenTaintSpec,
                 initial: Optional[Dict[str, Set[str]]] = None) -> None:
        self.ctx = ctx
        self.spec = spec
        self.tainted: Dict[str, Set[str]] = dict(initial or {})
        self.sink_hits: List[Tuple[ast.AST, str, Set[str]]] = []
        self.return_origins: Set[str] = set()
        self._record = False
        #: >0 while inside a loop body: assignments accumulate origins
        #: instead of replacing them, so loop-carried taint survives.
        self._weak = 0

    # ------------------------------------------------------------------
    def walk(self, body: Sequence[ast.stmt]) -> None:
        """Two passes: the first settles loop-carried taint, the second
        records sink hits against the settled state."""
        self._record = False
        self._walk_block(body)
        self._record = True
        self._walk_block(body)

    # ------------------------------------------------------------------
    # Expression origins
    # ------------------------------------------------------------------
    def origins(self, node: Optional[ast.AST]) -> Set[str]:
        if node is None:
            return set()
        if self.spec.expr_source(node, self.ctx):
            out = set()
            if isinstance(node, ast.Name):
                out |= self.tainted.get(node.id, set())
            out.add(self.GENERIC)
            return out
        if isinstance(node, ast.Name):
            return set(self.tainted.get(node.id, ()))
        if isinstance(node, (ast.Subscript, ast.Starred, ast.Await,
                             ast.NamedExpr)):
            return self.origins(node.value)
        if isinstance(node, ast.BinOp):
            return self.origins(node.left) | self.origins(node.right)
        if isinstance(node, ast.JoinedStr):
            out: Set[str] = set()
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    out |= self.origins(value.value)
            return out
        if isinstance(node, ast.FormattedValue):
            return self.origins(node.value)
        if isinstance(node, ast.IfExp):
            return self.origins(node.body) | self.origins(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = set()
            for element in node.elts:
                out |= self.origins(element)
            return out
        if isinstance(node, ast.Dict):
            out = set()
            for value in node.values:
                out |= self.origins(value)
            return out
        if isinstance(node, (ast.ListComp, ast.SetComp,
                             ast.GeneratorExp)):
            return self.origins(node.elt)
        if isinstance(node, ast.DictComp):
            return self.origins(node.key) | self.origins(node.value)
        if isinstance(node, ast.Call):
            return self._call_origins(node)
        return set()

    def _call_origins(self, call: ast.Call) -> Set[str]:
        spec = self.spec
        if spec.is_sanitizer(call, self.ctx):
            return set()
        func = call.func
        arg_origins: Set[str] = set()
        for arg in call.args:
            arg_origins |= self.origins(arg)
        for keyword in call.keywords:
            arg_origins |= self.origins(keyword.value)
        if isinstance(func, ast.Name) and func.id in ("str", "repr",
                                                      "format"):
            return arg_origins
        if isinstance(func, ast.Attribute):
            if func.attr in _STR_PASSTHROUGH:
                return self.origins(func.value) | arg_origins
        constructed = self._constructed_class(call)
        if constructed is not None:
            # A dataclass-style constructor (no explicit __init__)
            # embeds its arguments in the object: CampaignCheckpoint(
            # tokens=export) is as tainted as the export itself.
            return arg_origins
        summary = self._summary_for(call)
        if summary is not None:
            out: Set[str] = set()
            if summary.taint_through:
                for param, value in self._map_args(summary.params, call):
                    if param in summary.taint_through:
                        out |= self.origins(value)
            if getattr(summary, "returns_taint", False):
                out.add(self.GENERIC)
            return out
        return set()

    # ------------------------------------------------------------------
    # Summaries (interprocedural, solved by the fixpoint)
    # ------------------------------------------------------------------
    def _summary_for(self, call: ast.Call):
        project = getattr(self.ctx, "project", None)
        if project is None:
            return None
        info = project.by_path.get(self.ctx.path)
        if info is None:
            return None
        caller = getattr(self, "_function", None)
        fn = project.resolve_call(info, caller, call)
        if fn is None:
            return None
        return project.summaries.get(fn.qname)

    def _constructed_class(self, call: ast.Call):
        """The project class constructed by ``call``, when the class
        has no explicit ``__init__`` (dataclass-generated one)."""
        project = getattr(self.ctx, "project", None)
        if project is None:
            return None
        info = project.by_path.get(self.ctx.path)
        if info is None:
            return None
        ci = project.resolve_class(info, call)
        if ci is None:
            return None
        if f"{ci.qname}.__init__" in project.functions:
            return None
        return ci

    @staticmethod
    def _map_args(params: Sequence[str], call: ast.Call
                  ) -> Iterator[Tuple[str, ast.AST]]:
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                break
            if index < len(params):
                yield params[index], arg
        for keyword in call.keywords:
            if keyword.arg is not None and keyword.arg in params:
                yield keyword.arg, keyword.value

    # ------------------------------------------------------------------
    # Statement walking
    # ------------------------------------------------------------------
    def _walk_block(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._visit_expr(stmt.value)
            origins = self.origins(stmt.value)
            for target in stmt.targets:
                self._assign(target, origins, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._visit_expr(stmt.value)
                self._assign(stmt.target, self.origins(stmt.value),
                             stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self._visit_expr(stmt.value)
            origins = self.origins(stmt.value)
            if isinstance(stmt.target, ast.Name):
                origins |= self.tainted.get(stmt.target.id, set())
                self._set(stmt.target.id, origins)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._visit_expr(stmt.value)
                self.return_origins |= self.origins(stmt.value)
        elif isinstance(stmt, ast.Expr):
            self._visit_expr(stmt.value)
        elif isinstance(stmt, ast.If):
            self._visit_expr(stmt.test)
            self._walk_block(stmt.body)
            self._walk_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._visit_expr(stmt.test)
            self._loop_block(list(stmt.body) + list(stmt.orelse))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_expr(stmt.iter)
            self._assign(stmt.target, self.origins(stmt.iter), None)
            self._loop_block(list(stmt.body) + list(stmt.orelse))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._visit_expr(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars,
                                 self.origins(item.context_expr), None)
            self._walk_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._walk_block(stmt.body)
            for handler in stmt.handlers:
                self._walk_block(handler.body)
            self._walk_block(stmt.orelse)
            self._walk_block(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._visit_expr(stmt.exc)
            if stmt.cause is not None:
                self._visit_expr(stmt.cause)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.tainted.pop(target.id, None)
        elif isinstance(stmt, ast.Assert):
            self._visit_expr(stmt.test)
            if stmt.msg is not None:
                self._visit_expr(stmt.msg)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            pass        # nested definitions are analysed separately
        # remaining simple statements carry no taint-relevant expressions

    def _assign(self, target: ast.AST, origins: Set[str],
                value: Optional[ast.AST]) -> None:
        if isinstance(target, ast.Name):
            self._set(target.id, origins)
        elif isinstance(target, (ast.Tuple, ast.List)):
            values = (value.elts if isinstance(value, (ast.Tuple, ast.List))
                      and len(value.elts) == len(target.elts) else None)
            for index, element in enumerate(target.elts):
                element_origins = (self.origins(values[index])
                                   if values is not None else set(origins))
                self._assign(element, element_origins, None)
        # attribute / subscript stores are not tracked

    def _loop_block(self, body: Sequence[ast.stmt]) -> None:
        """Walk a loop body twice: the first (silent) walk seeds
        loop-carried taint, the second observes it at the sinks."""
        record = self._record
        self._weak += 1
        self._record = False
        self._walk_block(body)
        self._record = record
        self._walk_block(body)
        self._weak -= 1

    def _set(self, name: str, origins: Set[str]) -> None:
        if self._weak:
            # Inside a loop an assignment of a clean value does not
            # clear taint — a later iteration may still observe the
            # tainted binding from this one.
            if origins:
                self.tainted.setdefault(name, set()).update(origins)
            return
        if origins:
            self.tainted[name] = set(origins)
        else:
            self.tainted.pop(name, None)

    # ------------------------------------------------------------------
    # Expression visiting (sink detection)
    # ------------------------------------------------------------------
    def _visit_expr(self, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            self._check_call(node)
            self._visit_expr(node.func)
            for arg in node.args:
                self._visit_expr(arg)
            for keyword in node.keywords:
                self._visit_expr(keyword.value)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return
        for child in ast.iter_child_nodes(node):
            self._visit_expr(child)

    def _check_call(self, call: ast.Call) -> None:
        if not self._record:
            return
        spec = self.spec
        kind = spec.call_sink(call, self.ctx)
        if kind is not None:
            origins: Set[str] = set()
            for arg in call.args:
                origins |= self.origins(arg)
            for keyword in call.keywords:
                origins |= self.origins(keyword.value)
            if origins:
                self.sink_hits.append((call, kind, origins))
            return
        summary = self._summary_for(call)
        if summary is not None and summary.param_sink_flows:
            for param, value in self._map_args(summary.params, call):
                kinds = summary.param_sink_flows.get(param)
                if not kinds:
                    continue
                origins = self.origins(value)
                if origins:
                    for flow_kind in sorted(kinds):
                        self.sink_hits.append(
                            (call, f"{flow_kind}:via", origins))


# ----------------------------------------------------------------------
# Running the walker over a module
# ----------------------------------------------------------------------
def iter_function_defs(tree: ast.Module) -> Iterator[ast.AST]:
    """Every function/method definition, at any nesting depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def module_toplevel(tree: ast.Module) -> List[ast.stmt]:
    """Module statements outside any definition (defs excluded)."""
    return [stmt for stmt in tree.body
            if not isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef, ast.ClassDef))]


def analyse_module(ctx: ModuleContext
                   ) -> List[Tuple[ast.AST, str, Set[str]]]:
    """Sink hits for every function in a module plus its top level."""
    spec = TokenTaintSpec()
    hits: List[Tuple[ast.AST, str, Set[str]]] = []
    for node in iter_function_defs(ctx.tree):
        initial: Dict[str, Set[str]] = {}
        args = node.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            if spec.param_source(arg.arg):
                initial[arg.arg] = {TaintWalker.GENERIC}
        walker = TaintWalker(ctx, spec, initial)
        walker._function = _function_info_for(ctx, node)
        walker.walk(node.body)
        hits.extend(walker.sink_hits)
    top = TaintWalker(ctx, spec)
    top.walk(module_toplevel(ctx.tree))
    hits.extend(top.sink_hits)
    return hits


def _function_info_for(ctx: ModuleContext, node: ast.AST):
    project = getattr(ctx, "project", None)
    if project is None:
        return None
    info = project.by_path.get(ctx.path)
    if info is None:
        return None
    for fn in info.functions.values():
        if fn.node is node:
            return fn
    return None


# ----------------------------------------------------------------------
# RL1xx rules
# ----------------------------------------------------------------------
_SINK_RULES = {
    "log": ("RL101", "token value flows into a logging sink",
            "redact before logging: log redact_token(token), never the "
            "raw value"),
    "exception": ("RL102", "token value flows into an exception message",
                  "exception text lands in error envelopes clients "
                  "parse; pass redact_token(token) instead"),
    "persist": ("RL103", "token value persisted to an experiment "
                "artifact",
                "checkpoints/exports must carry redact_token(token) "
                "digests, never live tokens"),
}


class TokenTaintRule(Rule):
    """RL101/RL102/RL103 — token values reaching telemetry sinks."""

    rule_id = "RL101"
    severity = Severity.ERROR
    description = "token-taint: token values must not reach sinks"
    hint = ""

    def descriptions(self) -> Dict[str, str]:
        return {rule_id: description
                for rule_id, description, _hint in _SINK_RULES.values()}

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        seen: Set[Tuple[int, int, str]] = set()
        for node, kind, _origins in analyse_module(ctx):
            via = kind.endswith(":via")
            base_kind = kind.split(":", 1)[0]
            rule_id, message, hint = _SINK_RULES[base_kind]
            if via:
                message += " (through a called helper)"
            lineno = getattr(node, "lineno", 1)
            key = (lineno, getattr(node, "col_offset", 0), rule_id)
            if key in seen:
                continue
            seen.add(key)
            yield Finding(
                path=ctx.path, line=lineno,
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule_id, severity=Severity.ERROR,
                message=message, hint=hint,
                snippet=ctx.snippet(lineno))
