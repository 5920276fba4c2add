#!/usr/bin/env python3
"""Benchmark the measurement pipeline and write BENCH_PIPELINE.json.

Every measured run is one :func:`run_benchmark` call: ``run_full_study``
timed stage by stage (build, milking, campaign, detection, experiments)
by the telemetry registry's ``StageTimer``, with the run's peak RSS,
each in a fresh interpreter of its own, so scales and repeats share no
heap.  ``--repeats N`` keeps the fastest of N runs per workload.
Comparing two trees is the job of ``perfbench/`` (see
``perfbench/README.md``).

Examples
--------
The CI smoke configuration::

    python tools/bench_report.py --scale 0.002 --milking-days 6 \
        --campaign-days 20 --out bench-smoke.json

Scale sweep (the committed reference document), then the throughput
guard against it::

    python tools/bench_report.py --sweep --out BENCH_PIPELINE.json
    python tools/bench_report.py --scale 0.001 --out /tmp/guard.json \
        --guard BENCH_PIPELINE.json

A sweep of two or more scales also runs the build-scaling guard, and
``--sanitize`` the sanitizer-overhead guard over back-to-back
untraced/traced pairs.  A failed guard exits with status 3.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

#: ``--guard`` fails when campaign events/s falls more than this
#: fraction below the reference entry for the same workload.
GUARD_TOLERANCE = 0.2

#: The build-scaling guard: build accounts/s at the largest sweep scale
#: must be at least this fraction of the smallest scale's (see
#: :func:`check_build_scaling`).
BUILD_SCALING_FLOOR = 0.5

#: reprosan's overhead budget: the traced campaign stage may run at
#: most this fraction slower than the untraced one (see
#: :func:`check_sanitizer_overhead`).
SANITIZER_BUDGET = 0.10

#: Stage order for reports.  ``detection`` is a sub-stage of the
#: campaign (its seconds are included in the campaign's), broken out
#: because it is a pipeline phase of its own in the paper.
STAGE_ORDER = ("build", "milking", "campaign", "detection", "experiments")

#: What one "event" means per stage.
STAGE_EVENTS = {
    "build": "accounts created",
    "milking": "api requests logged",
    "campaign": "api requests logged",
    "detection": "candidate pairs scored",
    "experiments": "log rows analysed",
}

#: The payload fields that define a benchmarked workload.
WORKLOAD_KEYS = ("seed", "scale", "milking_days", "campaign_days")


class GuardError(RuntimeError):
    """A guard failed, or could not be checked."""


def _wave_histograms(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Per-stage p50/p95/p99 for the delivery-wave histogram families.

    Quantiles are integer bucket upper bounds (see
    :func:`repro.telemetry.export.histogram_quantiles`), so the values
    are deterministic and safe to bake into benchmark references.
    """
    from repro.telemetry.export import histogram_quantiles

    out: Dict[str, Any] = {}
    for name, labels, bounds, buckets, total in snapshot["histograms"]:
        if name not in ("wave_size", "wave_limiter_denials"):
            continue
        stage = dict(tuple(pair) for pair in labels).get("stage", "")
        entry = histogram_quantiles(bounds, buckets)
        entry["sum"] = total
        out.setdefault(name, {})[stage or "(none)"] = entry
    return out


def campaign_entries(payload: Dict[str, Any]) -> Tuple[int, float]:
    """The campaign stage's delivery-wave entries and entries/s.

    An entry is one sampled like or background charge in a wave; most
    are charges that log no request row, so entries, not rows, are
    what the stage's time follows (ROADMAP item 2).  The count is the
    ``wave_size`` histogram's sum for the stage; a payload without one
    reads 0.
    """
    entries = (payload.get("wave_histograms", {}).get("wave_size", {})
               .get("campaign", {}).get("sum", 0))
    seconds = payload["stages"].get("campaign", {}).get("seconds", 0.0)
    return entries, (entries / seconds if seconds > 0 else 0.0)


def run_benchmark(scale: float, seed: int,
                  milking_days: Optional[int] = None,
                  campaign_days: Optional[int] = None,
                  sanitize: bool = False) -> Dict[str, Any]:
    """Time one ``run_full_study`` and return its payload.

    The study records into ``TELEMETRY.stages`` with the telemetry
    plane on, so the payload carries deterministic wave-size and
    limiter-denial quantiles next to the timings; ``sanitize`` also
    records the reprosan shadow trace.  ``peak_rss_mb`` is the
    process's peak resident set size after the study.  Both planes are
    enabled and never reset, and the peak is the process's, so call
    this through :func:`_measure`, which gives each run a fresh
    interpreter.
    """
    from repro.core.config import StudyConfig
    from repro.experiments.runner import run_full_study
    from repro.sanitizer import SANITIZER
    from repro.telemetry import TELEMETRY

    overrides: Dict[str, Any] = {}
    if milking_days is not None:
        overrides["milking_days"] = milking_days
    if campaign_days is not None:
        overrides["campaign_days"] = campaign_days
    TELEMETRY.enable()
    if sanitize:
        SANITIZER.enable()
    timer = TELEMETRY.stages
    run_full_study(StudyConfig(scale=scale, seed=seed, **overrides),
                   timer=timer)
    # Linux reports ru_maxrss in KiB.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    counters = timer.counters
    # The rows the experiments analyse: everything logged before them.
    rows = sum(counters[f"{name}.log_rows"]
               for name in ("build", "milking", "campaign"))
    events = {
        "build": counters["build.accounts"],
        "milking": counters["milking.log_rows"],
        "campaign": counters["campaign.log_rows"],
        "detection": counters.get("detection.pairs_scored", 0),
        "experiments": rows,
    }
    stages: Dict[str, Any] = {}
    for name in STAGE_ORDER:
        if name not in timer.stages:
            continue
        seconds = timer.stages[name]
        stages[name] = {
            "seconds": round(seconds, 4),
            "events": events[name],
            "events_per_second": (round(events[name] / seconds, 1)
                                  if seconds > 0 else 0.0),
            "event_unit": STAGE_EVENTS[name],
        }
    # Detection runs inside the campaign stage, so the end-to-end total
    # only sums the four top-level stages.
    total = sum(timer.seconds(name)
                for name in ("build", "milking", "campaign", "experiments"))
    payload: Dict[str, Any] = {
        "scale": scale,
        "seed": seed,
        "milking_days": milking_days,
        "campaign_days": campaign_days,
        "python": platform.python_version(),
        "total_seconds": round(total, 4),
        "total_log_rows": rows,
        "rows_per_second": round(rows / total, 1) if total > 0 else 0.0,
        "peak_rss_mb": round(peak_rss_mb, 1),
        "stages": stages,
        "wave_histograms": _wave_histograms(TELEMETRY.snapshot()),
        "sanitize": sanitize,
    }
    if sanitize:
        payload["sanitizer_events"] = SANITIZER.event_total()
    return payload


def _measure(repeats: int, **workload: Any) -> Dict[str, Any]:
    """The fastest of ``repeats`` runs of one workload.

    Each run gets a fresh interpreter from the spawn context, so no run
    inherits another's heap or warm caches.  A workload is deterministic
    per (seed, scale, config), so the spread between runs is host noise
    and the minimum is the low-noise estimate.
    """
    context = multiprocessing.get_context("spawn")
    runs = []
    for _ in range(max(1, repeats)):
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            runs.append(pool.submit(run_benchmark, **workload).result())
    best = min(runs, key=lambda payload: payload["total_seconds"])
    best["runs"] = len(runs)
    best["total_seconds_all_runs"] = [payload["total_seconds"]
                                      for payload in runs]
    return best


def _sanitizer_section(repeats: int, **workload: Any) -> Dict[str, Any]:
    """The document's ``sanitizer`` section.

    Runs ``max(3, repeats)`` back-to-back pairs of the workload, one
    untraced run and then one with the reprosan trace recording, and
    records each stage's per-pair traced/untraced time ratios
    (``pair_overheads``) and their median (``overhead``).  The two runs
    of a pair are timed seconds apart, so host drift from pair to pair
    cancels in each ratio.  ``run`` is the fastest traced run.
    """
    pairs = []
    for _ in range(max(3, repeats)):
        untraced = _measure(1, **workload)
        pairs.append((untraced, _measure(1, sanitize=True, **workload)))
    pair_overheads: Dict[str, List[float]] = {}
    for untraced, traced in pairs:
        for name, stage in traced["stages"].items():
            base = untraced["stages"].get(name, {}).get("seconds", 0.0)
            if base > 0:
                pair_overheads.setdefault(name, []).append(
                    round(stage["seconds"] / base - 1, 4))
    traced_runs = [traced for _, traced in pairs]
    return {"run": min(traced_runs, key=lambda run: run["total_seconds"]),
            "pairs": len(pairs), "pair_overheads": pair_overheads,
            "overhead": {name: round(statistics.median(ratios), 4)
                         for name, ratios in pair_overheads.items()}}


def check_sanitizer_overhead(document: Dict[str, Any]) -> str:
    """Guard the sanitizer's campaign-stage overhead.

    Raises :class:`GuardError` when the campaign stage's median
    per-pair overhead (see :func:`_sanitizer_section`) exceeds
    :data:`SANITIZER_BUDGET`, or when the document has no ``sanitizer``
    section.  The check runs only under ``--sanitize`` and CI does not
    run it.
    """
    section = document.get("sanitizer")
    if not section:
        raise GuardError(
            "document has no sanitizer section; re-run with --sanitize")
    overhead = section.get("overhead", {}).get("campaign")
    if overhead is None:
        raise GuardError(
            "sanitizer section has no campaign-stage overhead entry")
    verdict = (f"sanitizer campaign-stage overhead {overhead:+.1%} "
               f"(budget {SANITIZER_BUDGET:.0%})")
    if overhead > SANITIZER_BUDGET:
        raise GuardError(f"sanitizer overhead regression: {verdict}")
    return f"guard ok: {verdict}"


def check_build_scaling(document: Dict[str, Any]) -> str:
    """Guard the membership build's scaling across the sweep.

    Compares build accounts/s at the sweep's largest scale with its
    smallest scale's, both measured in the same invocation on the same
    host, so the guard measures the program rather than the host.
    Raises :class:`GuardError` when the ratio is below
    :data:`BUILD_SCALING_FLOOR` (a build that slows per account as the
    pool grows, e.g. a per-recruit copy of the token DB) or when a
    sweep entry has no build stage.  A sweep of one scale has nothing
    to compare.
    """
    sweep = document.get("sweep", ())
    if len({payload["scale"] for payload in sweep}) < 2:
        return "guard skipped: the build-scaling check needs two sweep scales"
    smallest = min(sweep, key=lambda payload: payload["scale"])
    largest = max(sweep, key=lambda payload: payload["scale"])
    try:
        small_aps = smallest["stages"]["build"]["events_per_second"]
        large_aps = largest["stages"]["build"]["events_per_second"]
    except KeyError as error:
        raise GuardError(
            f"build stage missing from sweep payload: {error}") from error
    if small_aps <= 0:
        raise GuardError(
            f"build throughput at scale {smallest['scale']} is {small_aps}; "
            "cannot guard")
    ratio = large_aps / small_aps
    verdict = (f"build {large_aps:,.0f} accounts/s at scale "
               f"{largest['scale']} vs {small_aps:,.0f} at scale "
               f"{smallest['scale']} (ratio {ratio:.2f}, floor "
               f"{BUILD_SCALING_FLOOR:.2f})")
    if ratio < BUILD_SCALING_FLOOR:
        raise GuardError(f"build scaling regression: {verdict}")
    return f"guard ok: {verdict}"


def _workload(payload: Dict[str, Any], meta: Dict[str, Any]) -> Tuple:
    """A payload's workload.  Documents written before payloads carried
    their day overrides keep those of ``current`` in ``meta`` only."""
    return tuple(payload.get(key, meta.get(key)) for key in WORKLOAD_KEYS)


def _matching_reference(reference: Dict[str, Any], workload: Tuple):
    """The reference payload benchmarked with this exact workload."""
    meta = reference.get("meta", {})
    entries = [reference["current"]] if "current" in reference else []
    for entry in entries + list(reference.get("sweep", ())):
        if _workload(entry, meta) == workload:
            return entry
    return None


def check_campaign_regression(document: Dict[str, Any],
                              reference: Dict[str, Any]) -> str:
    """Guard the campaign stage's throughput against a reference run.

    Compares the campaign events/second in ``document["current"]`` with
    the reference entry (``current`` or a ``sweep`` entry) of the same
    workload: seed, scale and day overrides.  Raises
    :class:`GuardError` when throughput fell more than
    :data:`GUARD_TOLERANCE` below it, or when no such entry exists.

    The guard compares wall-clock throughput, so it is only meaningful
    when reference and current run on comparable hardware.
    """
    current = document["current"]
    workload = _workload(current, document.get("meta", {}))
    entry = _matching_reference(reference, workload)
    if entry is None:
        described = " ".join(f"{key}={value}" for key, value
                             in zip(WORKLOAD_KEYS, workload))
        raise GuardError(
            f"reference document has no entry for {described}; "
            "regenerate the reference with --sweep covering this "
            "workload")
    try:
        reference_eps = entry["stages"]["campaign"]["events_per_second"]
        current_eps = current["stages"]["campaign"]["events_per_second"]
    except KeyError as error:
        raise GuardError(
            f"campaign stage missing from payload: {error}") from error
    if reference_eps <= 0:
        raise GuardError(
            f"reference campaign throughput is {reference_eps}; cannot guard")
    floor = reference_eps * (1.0 - GUARD_TOLERANCE)
    verdict = (f"campaign throughput {current_eps:,.0f} events/s vs "
               f"reference {reference_eps:,.0f} (floor {floor:,.0f} at "
               f"{GUARD_TOLERANCE:.0%} tolerance)")
    if current_eps < floor:
        raise GuardError(
            f"campaign throughput regression: {verdict}")
    return f"guard ok: {verdict}"


def render(document: Dict[str, Any]) -> str:
    """Human-readable rendering of a benchmark document."""
    payload = document["current"]
    lines = [f"current ({payload['total_seconds']:.2f}s total, "
             f"{payload['rows_per_second']:,.0f} rows/s, "
             f"peak RSS {payload['peak_rss_mb']:,.1f} MiB):"]
    for name, stage in payload["stages"].items():
        lines.append(
            f"  {name:<12} {stage['seconds']:>8.2f}s  "
            f"{stage['events']:>9,} {stage['event_unit']}  "
            f"({stage['events_per_second']:,.0f}/s)")
    for family, by_stage in payload["wave_histograms"].items():
        for stage_name, entry in by_stage.items():
            quantiles = " ".join(
                f"{k}={'inf' if entry[k] is None else entry[k]}"
                for k in ("p50", "p95", "p99"))
            lines.append(
                f"  {family:<20} [{stage_name}] "
                f"count={entry['count']} {quantiles}")
    sanitizer = document.get("sanitizer")
    if sanitizer:
        run = sanitizer["run"]
        lines.append(f"sanitized run ({run['total_seconds']:.2f}s total, "
                     f"{run['sanitizer_events']:,} trace events; overhead "
                     f"is the median of {sanitizer['pairs']} pairs):")
        for name, fraction in sanitizer["overhead"].items():
            seconds = run["stages"][name]["seconds"]
            lines.append(f"  {name:<12} {seconds:>8.2f}s  "
                         f"overhead {fraction:+.1%}")
    sweep = document.get("sweep")
    if sweep:
        lines.append("scale sweep:")
        for payload in sweep:
            build = payload["stages"].get("build", {})
            campaign = payload["stages"].get("campaign", {})
            entries, entry_rate = campaign_entries(payload)
            lines.append(
                f"  scale {payload['scale']:<6}  "
                f"{payload['total_seconds']:>8.2f}s total  "
                f"{payload['total_log_rows']:>9,} rows  "
                f"build {build.get('events_per_second', 0.0):,.0f}/s  "
                f"campaign {campaign.get('events_per_second', 0.0):,.0f} "
                f"rows/s, {entries:,} entries ({entry_rate:,.0f}/s)  "
                f"peak RSS {payload['peak_rss_mb']:,.1f} MiB")
    return "\n".join(lines)


def main(argv=None) -> int:
    # argparse %-formats help strings, so a literal percent sign is "%%".
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--milking-days", type=int, default=None)
    parser.add_argument("--campaign-days", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=1,
                        help="run each workload this many times and "
                             "report the fastest run")
    parser.add_argument("--sweep", type=str, nargs="?",
                        const="0.001,0.01,0.1", default=None,
                        metavar="SCALES",
                        help="also benchmark these comma-separated "
                             "scales (default 0.001,0.01,0.1), record a "
                             "'sweep' section in the document, and exit "
                             "3 if build accounts/s at the largest scale "
                             f"is below {BUILD_SCALING_FLOOR:.0%}% of the "
                             "smallest scale's")
    parser.add_argument("--guard", type=str, default=None,
                        metavar="REFERENCE_JSON",
                        help="compare campaign events/s against the "
                             "entry of this reference document with the "
                             "same seed, scale and day overrides; exit 3 "
                             f"on a drop of more than "
                             f"{GUARD_TOLERANCE:.0%}%")
    parser.add_argument("--sanitize", action="store_true",
                        help="also time max(3, REPEATS) back-to-back "
                             "pairs of the workload, untraced and with "
                             "the reprosan shadow trace recording; "
                             "record a 'sanitizer' section with each "
                             "stage's median per-pair overhead, and exit "
                             "3 if the campaign stage's overhead exceeds "
                             f"{SANITIZER_BUDGET:.0%}%")
    parser.add_argument("--out", type=str,
                        default=os.path.join(REPO_ROOT,
                                             "BENCH_PIPELINE.json"))
    args = parser.parse_args(argv)

    workload = dict(seed=args.seed, milking_days=args.milking_days,
                    campaign_days=args.campaign_days)
    document: Dict[str, Any] = {
        "benchmark": "run_full_study",
        "meta": dict(scale=args.scale, **workload, repeats=args.repeats),
        "current": _measure(args.repeats, scale=args.scale, **workload),
    }
    if args.sweep:
        scales = [float(token) for token in args.sweep.split(",") if token]
        # The scale of ``current`` is already measured: reuse it.
        document["sweep"] = [
            document["current"] if scale == args.scale
            else _measure(args.repeats, scale=scale, **workload)
            for scale in scales]
    if args.sanitize:
        document["sanitizer"] = _sanitizer_section(
            args.repeats, scale=args.scale, **workload)

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(render(document))
    print(f"wrote {args.out}")

    checks = []
    if args.guard:
        with open(args.guard, "r", encoding="utf-8") as handle:
            reference = json.load(handle)
        checks.append(lambda: check_campaign_regression(document, reference))
    if args.sweep:
        checks.append(lambda: check_build_scaling(document))
    if args.sanitize:
        checks.append(lambda: check_sanitizer_overhead(document))
    status = 0
    for check in checks:
        try:
            print(check())
        except GuardError as error:
            print(f"error: {error}", file=sys.stderr)
            status = 3
    return status


if __name__ == "__main__":
    sys.exit(main())
