"""Taint-engine tests: the RL1xx fixture corpus + propagation
mechanics (sources, sinks, sanitizers, summaries, RL000)."""

import textwrap
from pathlib import Path

import repro
from repro.lint import lint_source

DATA = (Path(__file__).resolve().parent / "data" / "reprolint" /
        "taint")
PACKAGE = Path(repro.__file__).resolve().parent


def fixture_rules(name, kind="violations",
                  path="repro/oauth/helpers.py"):
    source = (DATA / kind / name).read_text(encoding="utf-8")
    return [f.rule for f in lint_source(source, path=path)]


def rules_of(source, path="repro/oauth/helpers.py"):
    return [f.rule
            for f in lint_source(textwrap.dedent(source), path=path)]


# ----------------------------------------------------------------------
# Fixture corpus: each violating module produces exactly its rule,
# each clean twin produces nothing.
# ----------------------------------------------------------------------
def test_rl101_fixture_pair():
    assert fixture_rules("rl101_log_leak.py") == ["RL101"]
    assert fixture_rules("rl101_log_redacted.py", kind="clean") == []


def test_rl102_fixture_pair():
    assert fixture_rules("rl102_exception_leak.py") == ["RL102"]
    assert fixture_rules("rl102_exception_redacted.py",
                         kind="clean") == []


def test_rl103_fixture_pair():
    assert fixture_rules("rl103_persist_leak.py") == ["RL103"]
    assert fixture_rules("rl103_persist_redacted.py",
                         kind="clean") == []


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------
def test_token_attribute_is_a_source():
    assert rules_of("""
        def reject(token):
            raise ValueError("bad token " + token.token)
    """) == ["RL102"]


def test_token_store_lookup_is_a_source():
    assert rules_of("""
        def audit(tokens, token_string, log):
            live = tokens.validate(token_string)
            log.info("validated %s", live)
    """) == ["RL101"]


def test_attribute_on_tainted_object_does_not_propagate():
    # token.invalidation_reason is metadata, not the token string;
    # flagging it would make the real tree unlintable.
    assert rules_of("""
        def reject(tokens, token_string):
            token = tokens.validate(token_string)
            raise ValueError(
                f"invalidated ({token.invalidation_reason})")
    """) == []


# ----------------------------------------------------------------------
# Propagation
# ----------------------------------------------------------------------
def test_taint_survives_fstrings_slices_and_concat():
    assert rules_of("""
        def leak(access_token, log):
            suffix = access_token[-6:]
            line = f"token ending {suffix}"
            log.warning(line + "!")
    """) == ["RL101"]


def test_taint_survives_str_format_and_join():
    assert rules_of("""
        def leak(access_token, log):
            line = "token {}".format(access_token)
            both = ", ".join([line, "ctx"])
            log.error(both)
    """) == ["RL101"]


def test_reassignment_clears_taint():
    assert rules_of("""
        def ok(access_token, log):
            ref = access_token
            ref = "<redacted>"
            log.info(ref)
    """) == []


def test_unknown_calls_do_not_propagate():
    # len(token) is an int; flagging it would drown real findings.
    assert rules_of("""
        def ok(access_token, log):
            log.info("token length %d", len(access_token))
    """) == []


def test_loop_carried_taint_is_caught():
    # The second pass sees taint assigned later in the loop body.
    assert rules_of("""
        def leak(token_db, log):
            last = ""
            for user in sorted(token_db):
                log.info("previous %s", last)
                last = token_db[user]
    """) == ["RL101"]


# ----------------------------------------------------------------------
# Sanitizer
# ----------------------------------------------------------------------
def test_redactor_clears_taint_by_any_route():
    assert rules_of("""
        from repro.oauth.redact import redact_token

        def ok(access_token, log):
            log.info("token %s", redact_token(access_token))
    """) == []
    assert rules_of("""
        from repro.oauth import redact

        def ok(access_token, log):
            log.info("token %s", redact.redact_token(access_token))
    """) == []


# ----------------------------------------------------------------------
# Interprocedural summaries
# ----------------------------------------------------------------------
def test_param_to_sink_summary_flags_the_call_site():
    findings = lint_source(textwrap.dedent("""
        import logging

        log = logging.getLogger("x")

        def emit(ref):
            log.info("token %s", ref)

        def caller(access_token):
            emit(access_token)
    """), path="repro/oauth/helpers.py")
    assert [f.rule for f in findings] == ["RL101"]
    assert "helper" in findings[0].message
    assert findings[0].line == 10          # the call site, not emit()


def test_taint_through_return_summary():
    assert rules_of("""
        def fmt(token_string):
            return "t=" + token_string

        def caller(access_token, log):
            line = fmt(access_token)
            log.warning(line)
    """) == ["RL101"]


def test_clean_helper_produces_no_flow():
    assert rules_of("""
        def fmt(token_string):
            return len(token_string)

        def caller(access_token, log):
            log.warning("len %d", fmt(access_token))
    """) == []


# ----------------------------------------------------------------------
# Load-bearing gate over the real tree
# ----------------------------------------------------------------------
def test_recovery_checkpoint_pragma_is_load_bearing():
    # Checkpoint capture reaches the token table through the parts
    # table (part.export_delta()), which the taint engine does not
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
        '        self.store.save("x", campaign.world.tokens.export_delta(b""))\n'))
    rules = [f.rule for f in lint_source(grafted, path=path)]
    assert rules == ["RL103"]


# ----------------------------------------------------------------------
# RL000 parse errors are findings, not crashes
# ----------------------------------------------------------------------
def test_syntax_error_is_a_finding():
    findings = lint_source("def broken(:\n    pass\n")
    assert [f.rule for f in findings] == ["RL000"]
    assert findings[0].severity.name == "ERROR"
    assert findings[0].line == 1
