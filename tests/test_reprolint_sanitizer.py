"""RL6xx sanitizer-coverage rules: fixture corpus, rule mechanics, and
the load-bearing gates over the real hook surface (``rng.py`` /
``sharding.py`` / the detection-side pragma sites).  The ``test_rl603_*``
tests keep their names from the retired shard-capture rule: a shard
delta's captured ``trace`` is now covered by RL402's field checks."""

import re
import textwrap
from pathlib import Path

import repro
from repro.lint import LintEngine, lint_source

DATA = (Path(__file__).resolve().parent / "data" / "reprolint" /
        "sanitizer")
PACKAGE = Path(repro.__file__).resolve().parent

_PRAGMA = re.compile(r"#\s*reprolint:\s*disable[^\n]*")


def fixture_findings(name, kind="violations",
                     path="repro/countermeasures/helpers.py"):
    source = (DATA / kind / name).read_text(encoding="utf-8")
    return lint_source(source, path=path)


def fixture_rules(name, kind="violations",
                  path="repro/countermeasures/helpers.py"):
    return [f.rule for f in fixture_findings(name, kind, path)]


def rules_of(source, path="repro/countermeasures/helpers.py"):
    return [f.rule
            for f in lint_source(textwrap.dedent(source), path=path)]


# ----------------------------------------------------------------------
# Fixture corpus: each violating module produces exactly its rule,
# each clean twin produces nothing.
# ----------------------------------------------------------------------
def test_rl601_fixture_pair():
    findings = fixture_findings("rl601_raw_stream.py")
    assert [f.rule for f in findings] == ["RL601"]
    assert "bypass" in findings[0].message
    assert fixture_rules("rl601_factory_stream.py", kind="clean") == []


def test_rl602_fixture_pair():
    findings = fixture_findings("rl602_state_transfer.py")
    assert [f.rule for f in findings] == ["RL602", "RL602"]
    assert fixture_rules("rl602_factory_transfer.py",
                         kind="clean") == []


def test_rl603_fixture_pair():
    # A merge that never reads the delta's trace drops the shard's
    # shadow-trace events.
    findings = fixture_findings("rl402_trace_unread.py")
    assert [f.rule for f in findings] == ["RL402"]
    assert "'WorkDayDelta.trace'" in findings[0].message
    assert fixture_rules("rl402_trace_replayed.py", kind="clean") == []


def test_rl604_fixture_pair():
    findings = fixture_findings("rl604_laundering.py")
    assert [f.rule for f in findings] == ["RL604"] * 4
    # Direct access, one-hop launder, two-hop launder, getattr.
    messages = "\n".join(f.message for f in findings)
    assert "._streams" in messages
    assert "launders hook internals" in messages
    assert "getattr" in messages
    assert fixture_rules("rl604_public_surface.py", kind="clean") == []


# ----------------------------------------------------------------------
# Rule mechanics
# ----------------------------------------------------------------------
def test_rl601_inside_the_shells_is_sanctioned():
    source = """
        import random

        def make(seed):
            return random.Random(seed)
    """
    # Same source, shell path vs anywhere else: only the engine
    # allowlist distinguishes them (lint_source runs with none).
    engine_findings = LintEngine().lint_module(
        "repro/sim/rng.py", textwrap.dedent(source))
    assert [f.rule for f in engine_findings] == []
    assert rules_of(source) == ["RL601"]


def test_rl602_leaves_module_global_state_to_rl002():
    # ``random.getstate()`` is the shared global generator — RL002's
    # finding; RL602 owns per-generator transfer only.
    assert rules_of("""
        import random

        def f():
            return random.getstate()
    """) == ["RL002"]


def test_rl603_accepts_forwarding_and_local_binding():
    assert rules_of("""
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class HopDelta:
            trace: tuple

        def direct(sanitizer, base):
            return HopDelta(trace=sanitizer.capture_slice(
                base, sanitizer.capture_mark()))

        def bound(sanitizer, base):
            grabbed = sanitizer.capture_slice(base, sanitizer.capture_mark())
            return HopDelta(trace=grabbed)

        def forwarded(other):
            return HopDelta(trace=other.trace)

        def merge(delta):
            return delta.trace
    """) == []


def test_rl603_flags_a_name_not_bound_from_capture():
    # A construction site that omits the trace silently defaults it.
    findings = lint_source(textwrap.dedent("""
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class HopDelta:
            rows: tuple
            trace: tuple = ()

        def smuggle(rows):
            return HopDelta(rows=tuple(rows))

        def merge(delta):
            return delta.rows, delta.trace
    """), path="repro/countermeasures/helpers.py")
    assert [f.rule for f in findings] == ["RL402"]
    assert "'HopDelta.trace' not passed explicitly" in findings[0].message


def test_rl604_ignores_deltas_without_a_sanitizer_field_and_shells():
    # _streams access from a shell path is the sanctioned factory.
    assert rules_of("""
        def peek(factory):
            return len(factory._streams)
    """, path="repro/sanitizer/probe.py") == []
    assert rules_of("""
        def peek(factory):
            return len(factory._streams)
    """) == ["RL604"]


# ----------------------------------------------------------------------
# Load-bearing gates over the real tree
# ----------------------------------------------------------------------
def test_rl601_pragmas_on_detection_samplers_are_load_bearing():
    """Stripping the justification pragmas resurfaces the raw
    constructions in the detector/invalidator shells."""
    for rel, count in (("detection/lockstep.py", 1),
                       ("detection/synchrotrap.py", 1),
                       ("detection/mlabuse.py", 1),
                       ("countermeasures/invalidation.py", 1)):
        source = (PACKAGE / rel).read_text(encoding="utf-8")
        stripped = _PRAGMA.sub("", source)
        findings = lint_source(stripped, path=f"repro/{rel}")
        assert [f.rule for f in findings
                if f.rule == "RL601"] == ["RL601"] * count, rel
        assert [f.rule for f in lint_source(source, path=f"repro/{rel}")
                if f.rule == "RL601"] == [], rel


def test_rl602_allowlist_on_the_factory_is_load_bearing():
    """The factory really uses getstate/setstate; only the shell
    allowlist keeps the real tree clean."""
    source = (PACKAGE / "sim" / "rng.py").read_text(encoding="utf-8")
    engine = LintEngine(allowlist={})
    findings = engine.lint_module("repro/sim/rng.py", source)
    rl602 = [f for f in findings if f.rule == "RL602"]
    assert len(rl602) == 2          # export_state + install_state
    assert LintEngine().lint_module("repro/sim/rng.py", source) == []


def test_rl603_capture_wiring_in_sharding_is_load_bearing():
    """Removing the merge's one read of ``delta.trace`` from the real
    sharding module leaves ShardDayDelta.trace captured but never
    consumed — an RL402 finding."""
    source = (PACKAGE / "countermeasures" / "sharding.py").read_text(
        encoding="utf-8")
    path = "repro/countermeasures/sharding.py"
    assert source.count("delta.trace") == 1
    broken = source.replace("trace = delta.trace", "trace = ()")
    findings = lint_source(broken, path=path)
    assert [f.rule for f in findings] == ["RL402"]
    assert "'ShardDayDelta.trace'" in findings[0].message
    assert lint_source(source, path=path) == []


def test_rl604_catches_an_injected_laundering_helper():
    """Grafting a _streams accessor onto the real recovery module is
    flagged at the access and at its caller."""
    source = (PACKAGE / "countermeasures" / "recovery.py").read_text(
        encoding="utf-8")
    grafted = source + textwrap.dedent("""

        def _grab_raw_stream(world, name):
            return world.rng._streams[name]

        def _resume_with_raw(world):
            return _grab_raw_stream(world, "campaign")
    """)
    findings = lint_source(grafted,
                           path="repro/countermeasures/recovery.py")
    assert [f.rule for f in findings if f.rule == "RL604"] == \
        ["RL604", "RL604"]
    clean = lint_source(source,
                        path="repro/countermeasures/recovery.py")
    assert [f.rule for f in clean if f.rule == "RL604"] == []
