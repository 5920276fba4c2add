"""SARIF 2.1.0 emission: required fields, fingerprint stability across
line shifts, and the suppression round-trip for pragma'd findings."""

import json

from repro.lint import LintEngine

WALL_CLOCK = (
    "import time\n"
    "\n"
    "\n"
    "def stamp():\n"
    "    return time.time()\n"
)

PRAGMAD_WALL_CLOCK = (
    "import time\n"
    "\n"
    "\n"
    "def stamp():\n"
    "    return time.time()  "
    "# reprolint: disable=RL001 — perf shell boundary\n"
)


def _sarif_for(tmp_path, name, source):
    target = tmp_path / name
    target.write_text(source, encoding="utf-8")
    engine = LintEngine(allowlist={})
    report = engine.run_files([(f"repro/{name}", target)])
    return report, json.loads(report.render_sarif())


# ----------------------------------------------------------------------
# Required 2.1.0 structure
# ----------------------------------------------------------------------
def test_document_carries_required_sarif_fields(tmp_path):
    _report, document = _sarif_for(tmp_path, "clocky.py", WALL_CLOCK)
    assert document["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in document["$schema"]
    (run,) = document["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "reprolint"
    assert driver["informationUri"]
    (rule,) = driver["rules"]
    assert rule["id"] == "RL001"
    assert rule["shortDescription"]["text"]
    (result,) = run["results"]
    assert result["ruleId"] == "RL001"
    assert result["level"] == "error"
    assert result["message"]["text"]
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "repro/clocky.py"
    region = location["region"]
    assert region["startLine"] == 5
    assert region["startColumn"] >= 1
    assert result["partialFingerprints"]["reprolintFingerprint/v1"]


def test_rule_table_covers_every_result_rule(tmp_path):
    # Every ruleId referenced by a result must have a driver rule
    # descriptor, or GitHub code scanning rejects the upload.
    source = WALL_CLOCK + "\nimport uuid\nNODE = uuid.uuid4()\n"
    _report, document = _sarif_for(tmp_path, "multi.py", source)
    run = document["runs"][0]
    declared = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    referenced = {result["ruleId"] for result in run["results"]}
    assert referenced <= declared


def test_every_rule_descriptor_has_a_description(tmp_path):
    source = (
        "import random\n"
        "\n"
        "from repro.telemetry.registry import TELEMETRY\n"
        "\n"
        "\n"
        "def sample(network):\n"
        "    TELEMETRY.count(\"draws\", network=f\"net-{network}\")\n"
        "    return random.Random(7)\n"
    )
    _report, document = _sarif_for(tmp_path, "sampler.py", source)
    rules = document["runs"][0]["tool"]["driver"]["rules"]
    assert {"RL501", "RL601"} <= {rule["id"] for rule in rules}
    for rule in rules:
        assert rule["shortDescription"]["text"] != rule["id"]


# ----------------------------------------------------------------------
# Fingerprint stability
# ----------------------------------------------------------------------
def test_fingerprints_survive_line_shifts(tmp_path):
    _report, before = _sarif_for(tmp_path, "shifty.py", WALL_CLOCK)
    shifted_source = "\n\n# a new header comment\n\n" + WALL_CLOCK
    _report, after = _sarif_for(tmp_path, "shifty.py", shifted_source)

    def prints(document):
        return [result["partialFingerprints"]["reprolintFingerprint/v1"]
                for result in document["runs"][0]["results"]]

    lines = [result["locations"][0]["physicalLocation"]["region"]
             ["startLine"] for result in after["runs"][0]["results"]]
    assert lines == [9]                  # the finding really moved...
    assert prints(before) == prints(after)   # ...the identity did not


# ----------------------------------------------------------------------
# Suppression round-trip
# ----------------------------------------------------------------------
def test_pragma_suppression_round_trips_as_in_source(tmp_path):
    report, document = _sarif_for(tmp_path, "shell.py",
                                  PRAGMAD_WALL_CLOCK)
    # The pragma keeps the run green...
    assert report.findings == []
    assert [f.rule for f in report.suppressed] == ["RL001"]
    # ...but the SARIF document still records the silenced finding.
    (result,) = document["runs"][0]["results"]
    assert result["ruleId"] == "RL001"
    (suppression,) = result["suppressions"]
    assert suppression["kind"] == "inSource"
    # And its rule is still declared in the driver table.
    declared = {rule["id"] for rule
                in document["runs"][0]["tool"]["driver"]["rules"]}
    assert declared == {"RL001"}


def test_suppressed_and_live_findings_coexist(tmp_path):
    source = PRAGMAD_WALL_CLOCK + (
        "\n"
        "\n"
        "def stamp_again():\n"
        "    return time.time()\n"
    )
    report, document = _sarif_for(tmp_path, "mixed.py", source)
    assert [f.rule for f in report.findings] == ["RL001"]
    assert [f.rule for f in report.suppressed] == ["RL001"]
    results = document["runs"][0]["results"]
    kinds = [tuple(s["kind"] for s in result.get("suppressions", ()))
             for result in results]
    assert kinds == [(), ("inSource",)]

