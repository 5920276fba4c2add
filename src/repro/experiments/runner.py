"""End-to-end study runner: build the world, run every experiment."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.apps.catalog import AppCatalog
from repro.collusion.ecosystem import CollusionEcosystem, build_ecosystem
from repro.core.config import StudyConfig
from repro.core.world import World
from repro.countermeasures.campaign import (
    CampaignConfig,
    CampaignResults,
    CountermeasureCampaign,
)
from repro.experiments import (
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)
from repro.honeypot.milker import MilkingCampaign, MilkingResults
from repro.perf import StageTimer, paused_gc
from repro.telemetry.tracing import TRACER


@dataclass
class StudyArtifacts:
    """Everything a finished study produced, for further analysis."""

    config: StudyConfig
    world: World
    catalog: AppCatalog
    ecosystem: CollusionEcosystem
    milking: Optional[MilkingResults] = None
    campaign: Optional[CampaignResults] = None
    timings: Optional[StageTimer] = None


@dataclass
class StudyReport:
    """Typed results for every table and figure."""

    table1: Optional[table1.Table1Result] = None
    table2: Optional[table2.Table2Result] = None
    table3: Optional[table3.Table3Result] = None
    table4: Optional[table4.Table4Result] = None
    table5: Optional[table5.Table5Result] = None
    table6: Optional[table6.Table6Result] = None
    fig4: Optional[fig4.Fig4Result] = None
    fig5: Optional[fig5.Fig5Result] = None
    fig6: Optional[fig6.Fig6Result] = None
    fig7: Optional[fig7.Fig7Result] = None
    fig8: Optional[fig8.Fig8Result] = None

    def render(self) -> str:
        sections = []
        for result in (self.table1, self.table2, self.table3, self.table4,
                       self.table5, self.table6, self.fig4, self.fig5,
                       self.fig6, self.fig7, self.fig8):
            if result is not None:
                sections.append(result.render())
        return "\n\n".join(sections)


def build_world(config: Optional[StudyConfig] = None) -> StudyArtifacts:
    """Create and populate a world (catalog + collusion ecosystem)."""
    config = config or StudyConfig()
    with paused_gc():
        world = World(config)
        catalog = AppCatalog(world.apps, world.rng.stream("catalog"),
                             top_n=config.top_apps)
        catalog.build()
        ecosystem = build_ecosystem(world,
                                    network_limit=config.network_limit)
    return StudyArtifacts(config=config, world=world, catalog=catalog,
                          ecosystem=ecosystem)


def run_milking(artifacts: StudyArtifacts,
                days: Optional[int] = None) -> MilkingResults:
    """Run the §4 milking campaign over every built network."""
    campaign = MilkingCampaign(artifacts.world, artifacts.ecosystem)
    with paused_gc():
        artifacts.milking = campaign.run(
            days or artifacts.config.milking_days)
    return artifacts.milking


def run_campaign(artifacts: StudyArtifacts,
                 campaign_config: Optional[CampaignConfig] = None,
                 recovery=None) -> CampaignResults:
    """Run the §6 countermeasure campaign (Fig. 5).

    ``recovery`` is an optional
    :class:`~repro.countermeasures.recovery.CampaignRecovery`: the
    campaign's request log is then journaled day by day and, when the
    journal directory already holds a compatible run, execution resumes
    from the last checkpointed day instead of day 1.
    """
    if campaign_config is None:
        days = artifacts.config.campaign_days
        campaign_config = (CampaignConfig() if days == 75
                           else CampaignConfig.compressed(days))
    config = campaign_config
    available = set(artifacts.ecosystem.networks)
    networks = tuple(domain for domain in config.networks
                     if domain in available)
    if networks != config.networks:
        config = CampaignConfig(**{**config.__dict__,
                                   "networks": networks})
    with paused_gc():
        runner = CountermeasureCampaign(artifacts.world,
                                        artifacts.ecosystem, config)
        artifacts.campaign = runner.run(recovery=recovery)
    return artifacts.campaign


def run_experiments(artifacts: StudyArtifacts) -> StudyReport:
    """Produce every table/figure that the available artifacts allow.

    One serial pass over the finished world.  Table 1's scan and
    Table 3 log API requests, so this order fixes the request-log
    digest.
    """
    world = artifacts.world
    report = StudyReport()
    report.table1 = table1.run(world, artifacts.catalog)
    report.table2 = table2.run(world)
    report.table3 = table3.run(world)
    report.table5 = table5.run(world, artifacts.ecosystem)
    milking = artifacts.milking
    if milking is not None:
        report.table4 = table4.run(milking, artifacts.config.scale)
        report.table6 = table6.run(milking)
        networks = [domain for domain in fig4.DEFAULT_NETWORKS
                    if domain in milking.per_network]
        if networks:
            report.fig4 = fig4.run(milking, networks)
    campaign = artifacts.campaign
    if campaign is not None:
        report.fig5 = fig5.run(campaign)
        report.fig6 = fig6.run(world, campaign,
                               ecosystem=artifacts.ecosystem)
        report.fig7 = fig7.run(world, campaign)
        report.fig8 = fig8.run(world, campaign)
    return report


def _record_resilience_counters(artifacts: StudyArtifacts,
                                timer: StageTimer) -> None:
    """Fold fault-injection and retry tallies into the stage timer.

    Recorded only on fault-plan runs so fault-free timer dumps stay
    identical to the pre-fault pipeline's.
    """
    faults = artifacts.world.faults
    if faults is None:
        return
    timer.count_many(faults.counters, prefix="faults.")
    totals: Dict[str, int] = {}
    policies = [network.retry_policy
                for network in artifacts.ecosystem.networks.values()]
    for policy in policies:
        for name, value in policy.counters.items():
            totals[name] = totals.get(name, 0) + value
    if artifacts.milking is not None:
        for name, value in artifacts.milking.retry_counters.items():
            totals[name] = totals.get(name, 0) + value
    timer.count_many(totals, prefix="retries.")


def run_full_study(config: Optional[StudyConfig] = None,
                   campaign_config: Optional[CampaignConfig] = None,
                   timer: Optional[StageTimer] = None,
                   campaign_recovery=None):
    """Build, milk, counter, and report.  Returns (artifacts, report).

    Stage timings, the built account count and per-stage API-request
    counts accumulate into ``timer`` (also stored as
    ``artifacts.timings``); on fault-plan runs the injected-fault and
    retry tallies land there too.  ``campaign_recovery`` flows through
    to :func:`run_campaign` for WAL journaling + day-granularity
    resume.
    """
    timer = timer if timer is not None else StageTimer()
    with timer.stage("build"):
        artifacts = build_world(config)
    artifacts.timings = timer
    if TRACER.enabled:
        # Give spans the sim clock so traces carry both time axes.
        TRACER.bind_clock(artifacts.world.clock)
    log = artifacts.world.api.log
    faults = artifacts.world.faults
    # Milking and the campaign register accounts too, so the build
    # stage's own count is only available here.
    timer.count("build.accounts", len(artifacts.world.platform.accounts))
    timer.count("build.log_rows", len(log.all()))
    with timer.stage("milking"):
        run_milking(artifacts)
    milked_rows = len(log.all())
    timer.count("milking.log_rows",
                milked_rows - timer.counters.get("build.log_rows", 0))
    milked_faults = faults.total_injected() if faults is not None else 0
    if faults is not None:
        timer.count("milking.faults_injected", milked_faults)
    with timer.stage("campaign"):
        run_campaign(artifacts, campaign_config,
                     recovery=campaign_recovery)
    timer.count("campaign.log_rows", len(log.all()) - milked_rows)
    if faults is not None:
        timer.count("campaign.faults_injected",
                    faults.total_injected() - milked_faults)
    with timer.stage("experiments"):
        report = run_experiments(artifacts)
    timer.count("experiments.log_rows", len(log.all()))
    _record_resilience_counters(artifacts, timer)
    return artifacts, report
