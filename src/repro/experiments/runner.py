"""End-to-end study runner: build the world, run every experiment."""

from __future__ import annotations

import multiprocessing
import os
import pickle
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

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
from repro.experiments.checkpoint import MISSING, CheckpointStore
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
    runner = CountermeasureCampaign(artifacts.world, artifacts.ecosystem,
                                    config)
    with paused_gc():
        artifacts.campaign = runner.run(recovery=recovery)
    return artifacts.campaign


# ----------------------------------------------------------------------
# Experiment jobs.  Each is a pure function of the artifacts, which is
# what lets run_experiments fan them out across worker processes.
# ----------------------------------------------------------------------
def _exp_table1(a: StudyArtifacts):
    return table1.run(a.world, a.catalog)


def _exp_table2(a: StudyArtifacts):
    return table2.run(a.world)


def _exp_table3(a: StudyArtifacts):
    return table3.run(a.world)


def _exp_table5(a: StudyArtifacts):
    return table5.run(a.world, a.ecosystem)


def _exp_table4(a: StudyArtifacts):
    return table4.run(a.milking, a.config.scale)


def _exp_table6(a: StudyArtifacts):
    return table6.run(a.milking)


def _exp_fig4(a: StudyArtifacts):
    networks = [d for d in fig4.DEFAULT_NETWORKS
                if d in a.milking.per_network]
    if not networks:
        return None
    return fig4.run(a.milking, networks)


def _exp_fig5(a: StudyArtifacts):
    return fig5.run(a.campaign)


def _exp_fig6(a: StudyArtifacts):
    return fig6.run(a.world, a.campaign, ecosystem=a.ecosystem)


def _exp_fig7(a: StudyArtifacts):
    return fig7.run(a.world, a.campaign)


def _exp_fig8(a: StudyArtifacts):
    return fig8.run(a.world, a.campaign)


_EXPERIMENT_RUNNERS: Dict[str, Callable[[StudyArtifacts], Any]] = {
    "table1": _exp_table1,
    "table2": _exp_table2,
    "table3": _exp_table3,
    "table5": _exp_table5,
    "table4": _exp_table4,
    "table6": _exp_table6,
    "fig4": _exp_fig4,
    "fig5": _exp_fig5,
    "fig6": _exp_fig6,
    "fig7": _exp_fig7,
    "fig8": _exp_fig8,
}

#: Artifacts handed to forked experiment workers.  Fork shares the
#: parent's memory copy-on-write, so workers read the world without
#: pickling it; only the (small) result objects travel back.
_PARALLEL_STATE: Dict[str, StudyArtifacts] = {}


class ExperimentWorkerError(RuntimeError):
    """Raised (as ``__cause__``) when an experiment worker fails.

    Carries the worker's formatted traceback so the parent process can
    show *where* in the experiment code the failure happened, not just
    that a subprocess died.
    """

    def __init__(self, experiment: str, worker_traceback: str) -> None:
        super().__init__(
            f"experiment worker {experiment!r} failed; "
            f"worker traceback:\n{worker_traceback}")
        self.experiment = experiment
        self.worker_traceback = worker_traceback


class _WorkerFailure:
    """Picklable snapshot of an exception raised inside a worker."""

    def __init__(self, name: str, exc: BaseException) -> None:
        self.name = name
        self.formatted = "".join(traceback.format_exception(
            type(exc), exc, exc.__traceback__))
        # Exceptions are usually picklable; when one is not (custom
        # __init__ signatures, unpicklable payloads) we still carry the
        # formatted traceback home, annotated with *why* the original
        # object could not travel.
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception as error:
            self.exc: Optional[BaseException] = None
            self.formatted += (
                f"\n(original exception object not picklable: {error!r};"
                " re-raising ExperimentWorkerError instead)")
        else:
            self.exc = exc

    def reraise(self) -> None:
        """Re-raise the original exception chained to a parent-side
        :class:`ExperimentWorkerError` holding the worker traceback."""
        cause = ExperimentWorkerError(self.name, self.formatted)
        if self.exc is not None:
            raise self.exc from cause
        raise cause


def _planned_experiments(artifacts: StudyArtifacts) -> List[str]:
    names = ["table1", "table2", "table3", "table5"]
    if artifacts.milking is not None:
        names += ["table4", "table6", "fig4"]
    if artifacts.campaign is not None:
        names += ["fig5", "fig6", "fig7", "fig8"]
    return names


def _run_planned(name: str) -> Tuple[str, Any]:
    try:
        return name, _EXPERIMENT_RUNNERS[name](_PARALLEL_STATE["artifacts"])
    except Exception as exc:
        return name, _WorkerFailure(name, exc)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcefully tear down a pool whose worker hung or died."""
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.terminate()
        except (OSError, ValueError):  # pragma: no cover - racy exit
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _run_experiments_parallel(
        artifacts: StudyArtifacts, names: List[str],
        max_workers: Optional[int],
        job_timeout: Optional[float] = None,
) -> Optional[Tuple[List[Tuple[str, Any]], List[str]]]:
    """Fan experiments out over forked workers.

    Returns ``(finished, leftover)`` — results actually collected and
    names that still need a (serial) run because a worker hung past
    ``job_timeout`` or died — or ``None`` when fork is unavailable.
    Worker exceptions are *collected*, not raised: they come back as
    ``(name, _WorkerFailure)`` entries for the caller to re-raise.
    """
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None
    workers = max_workers or min(len(names), os.cpu_count() or 1)
    _PARALLEL_STATE["artifacts"] = artifacts
    finished: List[Tuple[str, Any]] = []
    try:
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
    except (OSError, ValueError, RuntimeError) as error:  # pragma: no cover
        warnings.warn(f"experiment worker pool unavailable ({error!r}); "
                      "running experiments serially", RuntimeWarning,
                      stacklevel=2)
        _PARALLEL_STATE.clear()
        return None
    try:
        futures = [(name, pool.submit(_run_planned, name))
                   for name in names]
        for index, (name, future) in enumerate(futures):
            try:
                finished.append(future.result(timeout=job_timeout))
            except Exception as error:
                # A hung worker (timeout) or a dead one (BrokenProcessPool
                # after a kill -9 / crash): tear the pool down, salvage
                # any sibling results that did complete, and hand the
                # rest back for a serial re-run.
                warnings.warn(
                    f"experiment worker for {name!r} lost ({error!r}); "
                    "salvaging finished jobs and re-running the rest "
                    "serially", RuntimeWarning, stacklevel=2)
                _kill_pool(pool)
                for later_name, later in futures[index + 1:]:
                    if later.done() and not later.cancelled():
                        try:
                            finished.append(later.result(timeout=0))
                        except Exception as torn:
                            warnings.warn(
                                f"discarding torn result for "
                                f"{later_name!r} ({torn!r}); it will "
                                "re-run serially", RuntimeWarning,
                                stacklevel=2)
                collected = {n for n, _ in finished}
                return finished, [n for n in names if n not in collected]
        pool.shutdown()
        return finished, []
    finally:
        _PARALLEL_STATE.clear()


def run_experiments(artifacts: StudyArtifacts, parallel: bool = False,
                    max_workers: Optional[int] = None,
                    checkpoint: Optional[CheckpointStore] = None,
                    job_timeout: Optional[float] = None) -> StudyReport:
    """Produce every table/figure that the available artifacts allow.

    With ``parallel=True`` the experiment jobs run across forked worker
    processes (each job is a pure function of the artifacts, so the
    report is identical to a serial run); serial execution is the
    default and the fallback wherever fork is unavailable.

    A worker that *fails* re-raises its original exception in the parent
    with the worker traceback attached as ``__cause__``.  A worker that
    *hangs* past ``job_timeout`` seconds (or is killed) gets its pool
    torn down and its jobs re-run serially.  With a ``checkpoint``
    store, each finished job's result is persisted immediately and
    already-checkpointed jobs are loaded instead of re-run (the
    ``--resume`` path).
    """
    names = _planned_experiments(artifacts)
    done: Dict[str, Any] = {}
    if checkpoint is not None:
        checkpoint.write_manifest()
        for name in names:
            stored = checkpoint.load(name)
            if stored is not MISSING:
                done[name] = stored
    todo = [name for name in names if name not in done]

    def record(name: str, result: Any) -> None:
        if isinstance(result, _WorkerFailure):
            result.reraise()
        done[name] = result
        if checkpoint is not None:
            checkpoint.save(name, result)

    if parallel and len(todo) > 1:
        outcome = _run_experiments_parallel(artifacts, todo, max_workers,
                                            job_timeout)
        if outcome is not None:
            finished, leftover = outcome
            for name, result in finished:
                record(name, result)
            todo = leftover
    for name in todo:
        record(name, _EXPERIMENT_RUNNERS[name](artifacts))
    report = StudyReport()
    for name in names:
        setattr(report, name, done[name])
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
                   parallel_experiments: bool = False,
                   checkpoint: Optional[CheckpointStore] = None,
                   job_timeout: Optional[float] = None,
                   campaign_recovery=None):
    """Build, milk, counter, and report.  Returns (artifacts, report).

    Stage timings, the built account count and per-stage API-request
    counts accumulate into ``timer`` (also stored as
    ``artifacts.timings``); on fault-plan runs the injected-fault and
    retry tallies land there too.  ``checkpoint``
    / ``job_timeout`` flow through to :func:`run_experiments` for
    crash-tolerant experiment execution, ``campaign_recovery`` to
    :func:`run_campaign` for WAL journaling + day-granularity resume.
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
        report = run_experiments(artifacts,
                                 parallel=parallel_experiments,
                                 checkpoint=checkpoint,
                                 job_timeout=job_timeout)
    timer.count("experiments.log_rows", len(log.all()))
    _record_resilience_counters(artifacts, timer)
    return artifacts, report
