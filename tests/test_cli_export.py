"""Tests for the CLI and the export helpers."""

import csv
import io
import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import export, runner


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cli_scan_text(capsys):
    assert main(["scan", "--scale", "0.01", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "55 susceptible" in out
    assert "Spotify" in out


def test_cli_scan_json(capsys):
    assert main(["scan", "--scale", "0.01", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["susceptible"] == 55
    assert len(payload["rows"]) == 9


def test_cli_out_file(tmp_path, capsys):
    target = tmp_path / "scan.txt"
    assert main(["scan", "--scale", "0.01", "--out", str(target)]) == 0
    capsys.readouterr()
    assert "55 susceptible" in target.read_text()


def test_cli_milk_json(capsys):
    assert main(["milk", "--scale", "0.002", "--days", "3",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "table4" in payload and "table6" in payload
    domains = {row["domain"] for row in payload["table4"]["rows"]}
    assert "hublaa.me" in domains


# ----------------------------------------------------------------------
# Export helpers over a real mini report
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def mini_report():
    from repro import Study, StudyConfig
    from repro.countermeasures.campaign import CampaignConfig

    study = Study(StudyConfig(scale=0.002, seed=47, milking_days=3,
                              network_limit=3))
    study.build()
    study.milk()
    study.run_countermeasures(CampaignConfig(
        days=6, posts_per_day=4, rate_limit_day=2, invalidate_half_day=3,
        invalidate_all_day=4, daily_half_start_day=4,
        daily_all_start_day=5, ip_limit_day=5, clustering_start_day=6,
        as_block_day=6, hublaa_outage=None, outgoing_per_hour=0.5))
    return study.report()


def test_report_to_json_round_trips(mini_report):
    payload = json.loads(export.report_to_json(mini_report))
    assert payload["table1"]["susceptible"] == 55
    assert "rows" in payload["table4"]
    assert "series" in payload["fig5"]


def test_table4_csv(mini_report):
    text = export.table4_to_csv(mini_report.table4)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][0] == "collusion_network"
    assert len(rows) == len(mini_report.table4.rows) + 1


def test_fig5_csv(mini_report):
    text = export.fig5_series_to_csv(mini_report.fig5)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][0] == "day"
    assert len(rows) == 7  # header + 6 days


def test_fig4_csv(mini_report):
    text = export.fig4_curves_to_csv(mini_report.fig4)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["network", "post_index", "cumulative_likes",
                       "cumulative_unique_accounts"]
    assert len(rows) > 1


def test_cli_run_journal_summary_and_noop_resume(tmp_path, capsys):
    """`repro run --journal` prints the durability summary (shard
    fallback reasons, journal state, log digest), a --resume over a
    completed journal restores instead of re-running and ends on the
    same log digest, and a --resume that turns telemetry on is refused
    with exit 2."""
    import json as _json

    journal = str(tmp_path / "journal")
    args = ["run", "--scale", "0.002", "--seed", "5",
            "--milking-days", "2", "--campaign-days", "10",
            "--journal", journal]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "run summary:" in out
    assert "sealed through day 10" in out
    assert "request log:" in out and "digest" in out
    digest = out.split("digest ")[-1].strip()

    assert main(args + ["--resume", "--json"]) == 0
    payload = _json.loads(capsys.readouterr().out)
    run = payload["run"]
    # Every campaign day was already sealed + checkpointed: the resumed
    # run restores the final day's state and re-executes nothing.
    assert run["resumed_from_day"] == 11
    # The experiments re-run on the restored world, so the whole log,
    # not only the campaign's part, matches the uninterrupted run.
    assert len(run["log_digest"]) == 32
    assert run["log_digest"] == digest
    assert run["shard_blockers"] == []

    # The journal was written with telemetry off: resuming it with
    # telemetry on would restart the registry at the resume day.
    from repro.telemetry import TELEMETRY, TRACER

    try:
        assert main(args + ["--resume", "--telemetry",
                            str(tmp_path / "telemetry")]) == 2
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
        TRACER.disable()
        TRACER.reset()
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "missing: telemetry" in err


def _refuse_to_build(monkeypatch):
    def build_world(config=None):
        raise AssertionError("the world was built")

    monkeypatch.setattr(runner, "build_world", build_world)


def test_cli_run_rejects_a_plan_with_an_unknown_kind(tmp_path, capsys,
                                                     monkeypatch):
    """A plan file naming a fault kind the injector does not know fails
    to load: `repro run` exits 2 before building anything."""
    _refuse_to_build(monkeypatch)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(
        {"rules": [{"kind": "chunk", "probability": 0.05}]}))
    assert main(["run", "--faults", str(plan),
                 "--scale", "0.001", "--milking-days", "1",
                 "--campaign-days", "1"]) == 2
    err = capsys.readouterr().err
    assert f"cannot load fault plan {plan}" in err
    assert "unknown fault kind 'chunk'" in err


def test_cli_run_rejects_resume_without_a_journal(capsys, monkeypatch):
    """Only the campaign journal can be resumed: `repro run --resume`
    without --journal exits 2 before building anything."""
    _refuse_to_build(monkeypatch)
    assert main(["run", "--resume", "--scale", "0.001",
                 "--milking-days", "1", "--campaign-days", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --resume needs --journal")
