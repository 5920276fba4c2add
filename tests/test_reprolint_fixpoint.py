"""Fixpoint engine: deep-chain taint the one-level pass misses, SCC
convergence, and return taint through an implicit dataclass ctor."""

import textwrap
from pathlib import Path

from repro.lint import lint_source
from repro.lint.graph import ProjectGraph
from repro.lint.rules import ModuleContext

DATA = (Path(__file__).resolve().parent / "data" / "reprolint" /
        "taint")


def fixture_source(name, kind="violations"):
    return (DATA / kind / name).read_text(encoding="utf-8")


def graph_of(source, path="repro/oauth/helpers.py"):
    ctx = ModuleContext.build(path, textwrap.dedent(source))
    return ProjectGraph.build([ctx])


def summary(graph, suffix):
    for qname, fn_summary in graph.summaries.items():
        if qname.endswith(suffix):
            return fn_summary
    raise AssertionError(f"no summary for *{suffix}")


# ----------------------------------------------------------------------
# The acceptance chain: a 2-hop flow one-level summaries cannot see.
# ----------------------------------------------------------------------
def test_two_hop_fixture_pair():
    findings = lint_source(fixture_source("rl101_two_hop.py"),
                           path="repro/oauth/helpers.py")
    assert [f.rule for f in findings] == ["RL101"]
    # The call site in emit(), not the helpers.
    assert findings[0].line == 20
    assert lint_source(
        fixture_source("rl101_two_hop_redacted.py", kind="clean"),
        path="repro/oauth/helpers.py") == []


def test_fixpoint_beats_one_level_on_the_two_hop_chain():
    """Pinned: describe() calls fmt(), which is defined later in the
    file, so a single pass in definition order would see no summary for
    it; the fixpoint iterates to convergence and carries the chain."""
    deep = graph_of(fixture_source("rl101_two_hop.py"))
    assert summary(deep, ".describe").taint_through == {"value"}


# ----------------------------------------------------------------------
# Convergence
# ----------------------------------------------------------------------
def test_mutual_recursion_converges_and_propagates():
    # a <-> b form one SCC; the param-to-sink fact in a() must reach
    # callers of b() without the solver spinning forever.
    findings = lint_source(textwrap.dedent("""
        def a(value, log, n):
            if n == 0:
                log.warning("token %s", value)
                return
            b(value, log, n - 1)

        def b(value, log, n):
            a(value, log, n)

        def emit(access_token, log):
            b(access_token, log, 3)
    """), path="repro/oauth/helpers.py")
    assert [f.rule for f in findings] == ["RL101"]
    assert findings[0].line == 12


def test_self_recursion_terminates():
    graph = graph_of("""
        def spin(value, n):
            if n == 0:
                return value
            return spin(value, n - 1)
    """)
    assert summary(graph, ".spin").taint_through == {"value"}


# ----------------------------------------------------------------------
# Return taint
# ----------------------------------------------------------------------
def test_returns_taint_flows_through_implicit_dataclass_ctor():
    # The recovery.py shape: a token-table export is wrapped in a
    # record dataclass (no explicit __init__) and only then persisted.
    findings = lint_source(textwrap.dedent("""
        from dataclasses import dataclass


        @dataclass
        class DayImage:
            payload: dict
            day: int


        def capture(tokens, day):
            return DayImage(payload=tokens.export_state(), day=day)


        def persist(store, tokens, day):
            store.save("day", capture(tokens, day))
    """), path="repro/oauth/helpers.py")
    assert [f.rule for f in findings] == ["RL103"]
    assert findings[0].line == 16
