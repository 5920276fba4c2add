"""CLI-level tests: --format sarif, --json and the RL000 no-traceback
guarantee."""

import json

from repro.lint.cli import main

CLEAN = "x = 1\n"
WALL_CLOCK = (
    "import time\n"
    "\n"
    "\n"
    "def stamp():\n"
    "    return time.time()\n"
)


# ----------------------------------------------------------------------
# RL000: syntax errors are findings with a non-zero exit, not crashes
# ----------------------------------------------------------------------
def test_syntax_error_file_reports_rl000_and_exits_1(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n    pass\n", encoding="utf-8")
    rc = main([str(bad)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "RL000" in out
    assert "broken.py:1" in out
    assert "Traceback" not in out


# ----------------------------------------------------------------------
# --format
# ----------------------------------------------------------------------
def test_sarif_output_is_valid_and_carries_findings(tmp_path, capsys):
    target = tmp_path / "clocky.py"
    target.write_text(WALL_CLOCK, encoding="utf-8")
    rc = main([str(target), "--format", "sarif"])
    out = capsys.readouterr().out
    assert rc == 1
    document = json.loads(out)
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    assert run["tool"]["driver"]["name"] == "reprolint"
    results = run["results"]
    assert [r["ruleId"] for r in results] == ["RL001"]
    assert results[0]["level"] == "error"
    region = results[0]["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 5
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert rule_ids == {"RL001"}


def test_json_flag_is_a_format_alias(tmp_path, capsys):
    target = tmp_path / "ok.py"
    target.write_text(CLEAN, encoding="utf-8")
    assert main([str(target), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["files"] == 1

