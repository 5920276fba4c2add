#!/usr/bin/env python3
"""Subprocess driver for the crash-recovery acceptance tests.

Runs the same compressed two-network campaign as
``test_sharded_campaign._run`` with an optional WAL journal, an optional
mid-day SIGKILL (the "pull the power cord" half of the contract), an
optional ``torn_tail`` fault plan (the "disk ate the tail" half) and an
optional shard count (the two networks are app-disjoint, so
``--shards 2`` runs every campaign day in two forked shards).  Prints
the request-log digest and resume metadata for the test to compare
across processes.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

from repro.apps.catalog import AppCatalog
from repro.collusion.ecosystem import build_ecosystem
from repro.core.config import StudyConfig
from repro.core.world import World
from repro.countermeasures.campaign import (
    CampaignConfig,
    CountermeasureCampaign,
)
from repro.countermeasures.recovery import CampaignRecovery
from repro.faults.plan import FaultPlan, FaultRule
from repro.sanitizer import SANITIZER, write_sanitizer
from repro.sim.clock import DAY
from repro.telemetry.registry import TELEMETRY

#: Families excluded from the printed fingerprint: ``shard_`` describes
#: the execution strategy, ``journal_`` counts WAL frames/recoveries —
#: both legitimately differ between a journal-less reference, a
#: journaled run and a crash-resumed run, while every workload-derived
#: series must match exactly.
FINGERPRINT_EXCLUDES = ("shard_", "journal_")

NETWORKS = ("fb-autolikers.com", "autolike.vn")
SCALE = 0.004
DAYS = 12
SEED = 31


def build(fault_plan=None, shards=1):
    world = World(StudyConfig(scale=SCALE, seed=SEED,
                              fault_plan=fault_plan or FaultPlan()))
    AppCatalog(world.apps, world.rng.stream("catalog"),
               tail_apps=0).build()
    ecosystem = build_ecosystem(world, build_membership=False,
                                network_limit=13)
    for domain in NETWORKS:
        network = ecosystem.network(domain)
        network.build_membership(network.profile.pool_size(SCALE))
    config = CampaignConfig.compressed(
        DAYS, networks=NETWORKS, outgoing_per_hour=0.0, shards=shards,
        hublaa_outage=None)
    return world, CountermeasureCampaign(world, ecosystem, config)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--journal", default=None)
    parser.add_argument("--kill-day", type=int, default=None,
                        help="SIGKILL this process halfway through the "
                             "given campaign day")
    parser.add_argument("--torn-day", type=int, default=None,
                        help="fault plan: tear the journal tail while "
                             "sealing this campaign day")
    parser.add_argument("--no-resume", action="store_true")
    parser.add_argument("--shards", type=int, default=1,
                        help="campaign shard count (CampaignConfig.shards)")
    parser.add_argument("--sanitize", default=None,
                        help="record a reprosan trace and write its "
                             "manifest to this directory")
    args = parser.parse_args()

    if args.sanitize:
        SANITIZER.reset()
        SANITIZER.enable()

    plan = None
    if args.torn_day is not None:
        plan = FaultPlan((FaultRule(kind="torn_tail", probability=1.0,
                                    start_day=args.torn_day,
                                    end_day=args.torn_day + 1),))
    world, campaign = build(plan, shards=args.shards)

    recovery = None
    if args.journal:
        recovery = CampaignRecovery(args.journal,
                                    resume=not args.no_resume)
        if args.kill_day is not None:
            kill_day = args.kill_day
            orig_begin = recovery.begin_day

            def begin_day(campaign, day):
                orig_begin(campaign, day)
                if day == kill_day:
                    campaign.world.scheduler.at(
                        campaign.world.clock.now() + DAY // 2,
                        lambda: os.kill(os.getpid(), signal.SIGKILL),
                        label="chaos: kill -9")

            recovery.begin_day = begin_day

    TELEMETRY.reset()
    TELEMETRY.enable()
    results = campaign.run(recovery=recovery)
    print("digest", world.api.log.digest())
    print("rows", len(world.api.log))
    print("resumed_from", results.resumed_from_day)
    print("shards", results.shard_plan.effective_shards
          if results.shard_plan is not None else 1)
    print("telemetry_fingerprint",
          TELEMETRY.fingerprint(exclude_prefixes=FINGERPRINT_EXCLUDES))
    if recovery is not None:
        print("report", recovery.describe().replace("\n", " | "))
    if args.sanitize:
        write_sanitizer(args.sanitize)
        print("sanitizer_fingerprint", SANITIZER.fingerprint())
    return 0


if __name__ == "__main__":
    sys.exit(main())
