"""End-to-end tests for the Study facade."""

import pytest

from repro import Study, StudyConfig
from repro.countermeasures.campaign import CampaignConfig


@pytest.fixture(scope="module")
def completed_study():
    study = Study(StudyConfig(scale=0.004, seed=9, milking_days=6,
                              network_limit=3))
    study.build()
    study.milk()
    study.run_countermeasures(CampaignConfig(
        days=12, posts_per_day=5, rate_limit_day=3,
        invalidate_half_day=5, invalidate_all_day=6,
        daily_half_start_day=7, daily_all_start_day=8,
        ip_limit_day=9, clustering_start_day=10,
        clustering_interval_days=2, as_block_day=11,
        hublaa_outage=None, outgoing_per_hour=1.0))
    return study


def test_requires_build_first():
    study = Study(StudyConfig(scale=0.004))
    with pytest.raises(RuntimeError):
        study.artifacts
    with pytest.raises(RuntimeError):
        study.milk()


def test_build_is_single_shot(completed_study):
    with pytest.raises(RuntimeError):
        completed_study.build()


def test_report_covers_everything(completed_study):
    report = completed_study.report()
    for name in ("table1", "table2", "table3", "table4", "table5",
                 "table6", "fig4", "fig5", "fig6", "fig7", "fig8"):
        assert getattr(report, name) is not None, name


def test_report_render_is_complete_text(completed_study):
    text = completed_study.report().render()
    for marker in ("Table 1", "Table 4", "Table 6", "Figure 5",
                   "Figure 8"):
        assert marker in text


def test_report_cached(completed_study):
    assert completed_study.report() is completed_study.report()


def test_campaign_config_networks_filtered(completed_study):
    # Only built networks appear in the campaign even though the default
    # config may name others.
    campaign = completed_study.artifacts.campaign
    assert set(campaign.series) <= set(
        completed_study.ecosystem.networks)


def test_reference_run_log_is_pinned():
    # The reference run of `repro run --seed 2017 --scale 0.002
    # --milking-days 6 --campaign-days 20`.  Every other digest test
    # compares two runs of the same tree; this one pins the absolute
    # output, so a change to the RNG stream or to what gets logged shows
    # here and must re-pin it on purpose.
    from repro.experiments.runner import run_full_study

    artifacts, _ = run_full_study(StudyConfig(
        scale=0.002, seed=2017, milking_days=6, campaign_days=20))
    log = artifacts.world.api.log
    assert len(log) == 133_985
    assert log.digest() == "a1018d01e8af24d8324d9e3aad3e8e3b"


def test_run_all_from_scratch():
    # campaign_days is compressed onto the paper's 75-day intervention
    # ladder, which needs at least 10 days.
    study = Study(StudyConfig(scale=0.002, seed=11, milking_days=3,
                              campaign_days=12, network_limit=2))
    # run_all drives every stage with defaults; just verify it completes
    # and produces a full report at an extremely small scale.
    report = study.run_all()
    assert report.table4 is not None
    assert report.fig5 is not None
