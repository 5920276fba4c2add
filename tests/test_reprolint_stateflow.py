"""RL402, the shard-delta rule: the fixture corpus, rule mechanics, and
the load-bearing gates over the real durability layer (``sharding.py``,
plus ``recovery.py``'s checkpoint store as an RL103 sink).

That a day checkpoint carries every part's state is tested at run time
by ``tests/test_state_parts.py``, not linted."""

import re
import textwrap
from pathlib import Path

import repro
from repro.lint import lint_source

DATA = (Path(__file__).resolve().parent / "data" / "reprolint" /
        "stateflow")
PACKAGE = Path(repro.__file__).resolve().parent

_PRAGMA = re.compile(r"#\s*reprolint:\s*disable[^\n]*")


def fixture_findings(name, kind="violations",
                     path="repro/oauth/helpers.py"):
    source = (DATA / kind / name).read_text(encoding="utf-8")
    return lint_source(source, path=path)


def fixture_rules(name, kind="violations",
                  path="repro/oauth/helpers.py"):
    return [f.rule for f in fixture_findings(name, kind, path)]


# ----------------------------------------------------------------------
# Fixture corpus: each violating module produces exactly its rule,
# each clean twin produces nothing.
# ----------------------------------------------------------------------
def test_rl402_delta_fixture_pair():
    findings = fixture_findings("rl402_delta_unread.py")
    assert [f.rule for f in findings] == ["RL402"]
    assert "failures" in findings[0].message
    assert fixture_rules("rl402_delta_complete.py", kind="clean") == []


def test_rl402_fork_purity_fixture_pair():
    findings = fixture_findings("rl402_impure_child.py")
    assert [f.rule for f in findings] == ["RL402", "RL402"]
    messages = " ".join(f.message for f in findings)
    assert "opens a file for writing" in messages
    assert "json.dump" in messages
    assert fixture_rules("rl402_pure_child.py", kind="clean") == []


# ----------------------------------------------------------------------
# Rule mechanics beyond the corpus
# ----------------------------------------------------------------------
def test_rl402_transitive_child_impurity():
    # The child itself looks clean; the helper it calls writes a file.
    findings = lint_source(textwrap.dedent("""
        import os

        def spill(path):
            with open(path, "w") as sink:
                sink.write("x")

        def run(path):
            pid = os.fork()
            if pid == 0:
                spill(path)
                os._exit(0)
            os.waitpid(pid, 0)
    """), path="repro/oauth/helpers.py")
    assert [f.rule for f in findings] == ["RL402"]
    assert "spill" in findings[0].message


# ----------------------------------------------------------------------
# Load-bearing gates: undoing any shipped fix or pragma in the real
# durability layer makes the tree dirty again.
# ----------------------------------------------------------------------
def test_sharding_child_pipe_pragma_is_load_bearing():
    source = (PACKAGE / "countermeasures" / "sharding.py").read_text(
        encoding="utf-8")
    path = "repro/countermeasures/sharding.py"
    assert lint_source(source, path=path) == []
    stripped = _PRAGMA.sub("", source)
    rules = [f.rule for f in lint_source(stripped, path=path)]
    assert "RL402" in rules           # the child's pickle.dump pipe


def test_sharding_domains_quarantine_is_load_bearing():
    # Reverting the merge-side component check leaves the delta's
    # ``domains`` field captured but never consumed.
    source = (PACKAGE / "countermeasures" / "sharding.py").read_text(
        encoding="utf-8")
    path = "repro/countermeasures/sharding.py"
    reverted = source.replace(
        "tuple(delta.domains) != tuple(component)", "False")
    reverted = reverted.replace("{tuple(delta.domains)!r}",
                                "{tuple(component)!r}")
    assert reverted != source
    findings = lint_source(reverted, path=path)
    assert [f.rule for f in findings] == ["RL402"]
    assert "domains" in findings[0].message


def test_recovery_checkpoint_pragma_is_load_bearing():
    # Checkpoint capture reaches the token table through the parts
    # table (part.export_state()), which the taint engine does not
    # resolve, so recovery.py needs no RL103 pragma.  The checkpoint
    # store is still a proven sink: saving the token store's export
    # directly is flagged.
    source = (PACKAGE / "countermeasures" / "recovery.py").read_text(
        encoding="utf-8")
    path = "repro/countermeasures/recovery.py"
    assert lint_source(source, path=path) == []
    anchor = '        self.store.save(f"day-{campaign_day:05d}", checkpoint)\n'
    assert source.count(anchor) == 1
    grafted = source.replace(anchor, anchor + (
        '        self.store.save("x", campaign.world.tokens.export_state())\n'))
    rules = [f.rule for f in lint_source(grafted, path=path)]
    assert rules == ["RL103"]
