"""Engine-level reprolint tests: pragmas, CLI, exit codes."""

import json
import shutil
import textwrap
from pathlib import Path

from repro.cli import main as repro_main
from repro.lint import lint_source
from repro.lint.cli import main as lint_main

FIXTURES = Path(__file__).parent / "data" / "reprolint"


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------
def test_line_pragma_suppresses_only_that_line():
    findings = lint_source(textwrap.dedent("""
        import time

        def f():
            a = time.time()  # reprolint: disable=RL001 — perf probe
            b = time.time()
            return a, b
    """))
    assert [(f.rule, f.line) for f in findings] == [("RL001", 6)]


def test_file_pragma_and_disable_all():
    clean = lint_source(textwrap.dedent("""
        # reprolint: disable-file=RL001
        import time

        def f():
            return time.time()
    """))
    assert clean == []
    all_off = lint_source(textwrap.dedent("""
        import random

        def f():
            return random.random()  # reprolint: disable=all
    """))
    assert all_off == []


def test_pragma_for_other_rule_does_not_suppress():
    findings = lint_source(textwrap.dedent("""
        import time

        def f():
            return time.time()  # reprolint: disable=RL002
    """))
    assert [f.rule for f in findings] == ["RL001"]


# ----------------------------------------------------------------------
# CLI (both entry points share one implementation)
# ----------------------------------------------------------------------
def _violating_tree(tmp_path):
    tree = tmp_path / "fixture"
    shutil.copytree(FIXTURES / "violations", tree)
    return tree


def test_cli_nonzero_on_fixture_tree_with_every_rule(tmp_path, capsys):
    tree = _violating_tree(tmp_path)
    exit_code = lint_main([str(tree), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    seen = {row["rule"] for row in payload["findings"]}
    assert {"RL001", "RL002", "RL003", "RL004", "RL005"} <= seen
    assert payload["summary"]["failing"] > 0


def test_repro_cli_lint_subcommand(tmp_path, capsys):
    tree = _violating_tree(tmp_path)
    assert repro_main(["lint", str(tree)]) == 1
    out = capsys.readouterr().out
    assert "RL001" in out and "RL005" in out

    clean = FIXTURES / "clean"
    assert repro_main(["lint", str(clean)]) == 0


def test_cli_fail_on_thresholds(tmp_path):
    tree = tmp_path / "warn_only"
    tree.mkdir()
    (tree / "mod.py").write_text(textwrap.dedent("""
        def f(x):
            try:
                return x()
            except Exception:
                return None
    """))
    # RL005 is warning severity: fails at --fail-on warning, passes
    # at --fail-on error, passes at --fail-on never.
    assert lint_main([str(tree)]) == 1
    assert lint_main([str(tree), "--fail-on", "error"]) == 0
    assert lint_main([str(tree), "--fail-on", "never"]) == 0


def test_cli_missing_path_and_bad_baseline(tmp_path, capsys):
    assert lint_main([str(tmp_path / "nope")]) == 2
    capsys.readouterr()


def test_syntax_error_is_reported_not_crashed(tmp_path, capsys):
    tree = tmp_path / "broken"
    tree.mkdir()
    (tree / "mod.py").write_text("def f(:\n")
    assert lint_main([str(tree)]) == 1
    assert "RL000" in capsys.readouterr().out
