"""Run one study of one workload and print its measurements.

Invoked by ``run.py`` in a fresh interpreter per study::

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/study.py \
        '{"workload": "campaign", "seed": 2017, "trace": false,
          "workdir": ".bench_work/x"}'

The last stdout line is ``STUDY_JSON <json>``: wall times of every
stage, the request-log digest, the correctness facts the parent checks,
and (traced) the per-layer metrics.  The workdir holds the durable
workload's journal and checkpoints; the caller deletes it.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from time import perf_counter
from typing import Any, Dict

import workloads


def _tree_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def run_study(options: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core.config import StudyConfig
    from repro.experiments import runner
    from repro.sanitizer import SANITIZER
    from repro.telemetry import TELEMETRY
    from repro.telemetry.tracing import TRACER

    workload = workloads.get(options["workload"], options.get("scale"))
    seed = int(options["seed"])
    config = StudyConfig(**workload.study_kwargs(seed))
    campaign_config = workloads.campaign_config(workload)
    tracer = None
    if options["trace"]:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    if workload.durable:
        for plane in (TELEMETRY, TRACER, SANITIZER):
            plane.reset()
            plane.enable()
    out: Dict[str, Any] = {"workload": workload.name, "seed": seed,
                           "traced": bool(tracer)}
    recovery = None
    journal_dir = os.path.join(options["workdir"], "journal")
    if workload.durable:
        from repro.countermeasures.recovery import CampaignRecovery

        recovery = CampaignRecovery(journal_dir, resume=False)

    start = perf_counter()
    artifacts = runner.build_world(config)
    built = perf_counter()
    if TRACER.enabled:
        TRACER.bind_clock(artifacts.world.clock)
    log = artifacts.world.api.log
    runner.run_milking(artifacts)
    milked = perf_counter()
    rows_before = len(log)
    runner.run_campaign(artifacts, campaign_config, recovery=recovery)
    campaigned = perf_counter()
    campaign_rows = len(log) - rows_before
    report = None
    if workload.experiments:
        report = runner.run_experiments(artifacts)
    finished = perf_counter()

    out.update({
        "study_s": finished - start,
        "setup_s": built - start,
        "milking_s": milked - built,
        "campaign_s": campaigned - milked,
        "experiments_s": finished - campaigned,
        "campaign_rows": campaign_rows,
        "accounts": len(artifacts.world.platform.accounts),
        "digest": log.digest(),
    })
    if report is not None:
        from repro.experiments.comparison import score_report

        card = score_report(report, config.scale)
        out["score_passed"] = card.passed
        out["score_total"] = len(card.checks)
        out["score_failures"] = [f"{c.experiment}: {c.name}"
                                 for c in card.failures()]
    extras = {"recovery.checkpoint_save.bytes": 0, "journal.bytes": 0,
              "sharding.quarantines": 0, "sanitizer.events": 0,
              "telemetry.spans": 0}
    if workload.durable:
        campaign = artifacts.campaign
        plan = campaign.shard_plan
        checkpoints = os.path.join(journal_dir, "checkpoints")
        extras.update({
            "recovery.checkpoint_save.bytes": _tree_bytes(checkpoints),
            "journal.bytes": _tree_bytes(journal_dir)
                             - _tree_bytes(checkpoints),
            "sharding.quarantines": len(campaign.shard_failures),
            "sanitizer.events": SANITIZER.event_total(),
            "telemetry.spans": sum(1 for _ in TRACER.walk()),
        })
        out.update({
            "journal_rows": recovery.journal.verify_chain(),
            "shard_eligible": plan is not None and plan.eligible,
            "effective_shards": plan.effective_shards if plan else 1,
            "sharding_quarantines": extras["sharding.quarantines"],
            "sanitizer_events": extras["sanitizer.events"],
            "telemetry_spans": extras["telemetry.spans"],
            "telemetry_counters": sum(
                value for _name, _labels, value
                in TELEMETRY.snapshot()["counters"]),
        })
        for plane in (TELEMETRY, TRACER, SANITIZER):
            plane.disable()
    if tracer is not None:
        tracer.restore()
        out["layers"] = tracer.metrics(out["study_s"], extras)
        out["wrappers_restored"] = not tracer.installed
        out["layers_missing"] = tracer.missing
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    out["python"] = platform.python_version()
    out["pythonhashseed"] = os.environ.get("PYTHONHASHSEED")
    return out


def main() -> int:
    options = json.loads(sys.argv[1])
    result = run_study(options)
    print("STUDY_JSON " + json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
