"""Self-test of the benchmark at a small scale.

Usage (from the repository root; about a minute)::

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` names exactly the metrics ``run.py``
emits, with the same units; that every workload passes its correctness
gate with the traced study's digest equal to the untraced one; and that
each layer is reached, or not, where the workload says it should be
(``journal.seal.calls`` equals the campaign days on ``durable`` and is
0 on ``campaign``).  Exits non-zero when any check fails.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

import run
import workloads

#: Small enough to be quick, large enough that every score check and
#: the durable shard plan still hold.
SCALE = 0.005
SEED = 7

#: Layers every workload reaches (build, milking and a campaign).
ALWAYS = ("collusion.join", "collusion.campaign_joins",
          "collusion.draw_member", "collusion.daily_tick",
          "oauth.authorize", "oauth.token_issue", "socialnet.register",
          "shorturl.click", "honeypot.crawl", "collusion.like_request",
          "graphapi.wave", "graphapi.like", "graphapi.wave_finish",
          "graphapi.log_append", "ratelimit.admit", "ratelimit.flush",
          "sim.scheduler", "detection.synchrotrap",
          "countermeasures.invalidation", "countermeasures.clustering")
#: Layers only the durable workload reaches.
DURABLE_ONLY = ("recovery.capture", "recovery.checkpoint_save",
                "journal.append", "journal.seal", "sharding.day",
                "sharding.component")


def check_manifest() -> List[str]:
    """``BENCHMARK.json`` against what ``run.py`` emits."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        manifest = json.load(handle)
    problems = []
    names = [w["name"] for w in manifest["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"workloads {names} != {sorted(workloads.WORKLOADS)}")
    e2e = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    if e2e != run.END_TO_END:
        problems.append(f"end_to_end {e2e} != {run.END_TO_END}")
    layered = {m["name"]: (m["unit"], m["better"])
               for m in manifest["per_layer"]}
    if layered != run.per_layer_catalog():
        missing = set(run.per_layer_catalog()) ^ set(layered)
        problems.append(f"per_layer differs from run.per_layer_catalog() "
                        f"(names only on one side: {sorted(missing)})")
    return problems


def _expect(values: Dict[str, float], name: str, ok: bool,
            what: str) -> List[str]:
    return [] if ok else [f"{name} = {values.get(name)!r}, expected {what}"]


def check_workload(name: str) -> List[str]:
    workload = workloads.get(name, SCALE)
    problems: List[str] = []
    per_layer_units = {metric: unit for metric, (unit, _better)
                       in run.per_layer_catalog().items()}
    traced = None
    for trace, expected in ((False, run.END_TO_END),
                            (True, per_layer_units)):
        result, lines = run.run_workload(name, SEED, 0.0, trace,
                                         scale=SCALE, min_studies=1)
        if any("layers not found" in line for line in lines):
            problems.append("some layers could not be wrapped")
        if not result["correct"] or result["failed"]:
            problems.append("correctness gate failed:\n  "
                            + "\n  ".join(lines))
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        if emitted != expected:
            differ = set(emitted.items()) ^ set(expected.items())
            problems.append(f"emitted metrics/units differ: "
                            f"{sorted(differ)}")
        traced = result
    if problems:
        return problems
    values = {k: v["value"] for k, v in traced["metrics"].items()}
    for layer in ALWAYS:
        calls = f"{layer}.calls"
        problems += _expect(values, calls, values[calls] > 0, "> 0")
    days = workload.campaign_days
    if workload.durable:
        for layer in ("recovery.capture", "recovery.checkpoint_save",
                      "journal.seal", "sharding.day"):
            calls = f"{layer}.calls"
            problems += _expect(values, calls, values[calls] == days,
                                f"== {days} campaign days")
        problems += _expect(values, "sharding.component.calls",
                            values["sharding.component.calls"]
                            == days * workload.shards,
                            f"== {days * workload.shards}")
        for metric in ("journal.append.calls", "journal.bytes",
                       "recovery.checkpoint_save.bytes", "sanitizer.events",
                       "telemetry.spans"):
            problems += _expect(values, metric, values[metric] > 0, "> 0")
        problems += _expect(values, "experiments.run.calls",
                            values["experiments.run.calls"] == 0, "0")
        problems += _expect(values, "sharding.quarantines",
                            values["sharding.quarantines"] == 0, "0")
    else:
        for layer in DURABLE_ONLY:
            calls = f"{layer}.calls"
            problems += _expect(values, calls, values[calls] == 0, "0")
        for metric in ("sanitizer.events", "telemetry.spans",
                       "journal.bytes"):
            problems += _expect(values, metric, values[metric] == 0, "0")
        for metric in ("experiments.run.calls", "apps.catalog_build.calls"):
            problems += _expect(values, metric, values[metric] == 1, "1")
        for metric in ("collusion.serve_background.calls",
                       "graphapi.charge.calls"):
            problems += _expect(values, metric, values[metric] > 0, "> 0")
    for metric, value in values.items():
        if metric.endswith("share") and not 0.0 <= value <= 100.0:
            problems.append(f"{metric} = {value} is not a share")
        if metric.endswith(".self_share"):
            inclusive = values[metric[:-len("self_share")] + "share"]
            problems += _expect(values, metric, value <= inclusive + 1e-9,
                                "<= the inclusive share")
    return problems


def main() -> int:
    failures = check_manifest()
    for problem in failures:
        print(f"manifest: {problem}")
    for name in sorted(workloads.WORKLOADS):
        problems = check_workload(name)
        print(f"{name}: {'ok' if not problems else 'FAILED'}", flush=True)
        for problem in problems:
            print(f"  {problem}")
        failures += problems
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
