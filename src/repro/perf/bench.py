"""Pipeline throughput benchmark (``repro bench``, tools/bench_report.py).

Measures wall-clock seconds and events/second for every stage of
``run_full_study`` — build, milking, campaign, detection (the campaign's
clustering passes), experiments — and emits the ``BENCH_PIPELINE.json``
payload.  A baseline tree (e.g. a git worktree of an older commit) can
be benchmarked with the same harness for before/after comparisons.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, Optional

DEFAULT_SCALE = 0.01
DEFAULT_SEED = 2017


class BaselineError(RuntimeError):
    """A ``--baseline`` tree is unusable (missing, wrong dir, dirty)."""


class GuardError(RuntimeError):
    """A throughput regression guard failed (or could not be checked)."""


def _git_root(path: str) -> Optional[str]:
    """The enclosing git work tree, or None if ``path`` is not in one."""
    current = os.path.abspath(path)
    while True:
        if os.path.exists(os.path.join(current, ".git")):
            return current
        parent = os.path.dirname(current)
        if parent == current:
            return None
        current = parent


def validate_baseline(src_dir: str) -> None:
    """Fail early — with an actionable message — on a bad baseline tree.

    Checks that ``src_dir`` actually contains the ``repro`` package and
    that its enclosing git worktree (if any) has no uncommitted changes;
    a dirty baseline would silently benchmark unreviewed code.
    """
    if not os.path.isdir(src_dir):
        raise BaselineError(
            f"baseline src dir does not exist: {src_dir}\n"
            "create one with: git worktree add /tmp/baseline <ref> "
            "and pass /tmp/baseline/src")
    if not os.path.isfile(os.path.join(src_dir, "repro", "__init__.py")):
        raise BaselineError(
            f"baseline src dir has no repro package: {src_dir}\n"
            "pass the checkout's src directory (e.g. /tmp/baseline/src), "
            "not the checkout root")
    root = _git_root(src_dir)
    if root is None:
        return  # exported tree / tarball: nothing to check
    try:
        result = subprocess.run(
            ["git", "-C", root, "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return  # no git binary: skip the dirtiness check
    if result.returncode != 0:
        return
    dirty = result.stdout.strip()
    if dirty:
        listing = "\n".join(
            "  " + line for line in dirty.splitlines()[:10])
        raise BaselineError(
            f"baseline worktree {root} has uncommitted changes:\n"
            f"{listing}\n"
            "commit, stash, or recreate the worktree so the benchmark "
            "compares two well-defined trees")

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


def _wave_histograms(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Per-stage p50/p95/p99 for the delivery-wave histogram families.

    Quantiles are integer bucket upper bounds (see
    :func:`repro.telemetry.export.histogram_quantiles`), so the values
    are deterministic and safe to bake into benchmark baselines.
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


def _payload(scale: float, seed: int, parallel_experiments: bool,
             stage_seconds: Dict[str, float],
             stage_events: Dict[str, int],
             total_rows: int,
             histograms: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    stages: Dict[str, Any] = {}
    for name in STAGE_ORDER:
        if name not in stage_seconds:
            continue
        seconds = stage_seconds[name]
        events = stage_events.get(name, 0)
        stages[name] = {
            "seconds": round(seconds, 4),
            "events": events,
            "events_per_second": (round(events / seconds, 1)
                                  if seconds > 0 else 0.0),
            "event_unit": STAGE_EVENTS.get(name, "events"),
        }
    # Detection runs inside the campaign stage, so the end-to-end total
    # only sums the four top-level stages.
    total = sum(stage_seconds.get(name, 0.0)
                for name in ("build", "milking", "campaign", "experiments"))
    document: Dict[str, Any] = {
        "scale": scale,
        "seed": seed,
        "python": platform.python_version(),
        "parallel_experiments": parallel_experiments,
        "total_seconds": round(total, 4),
        "total_log_rows": total_rows,
        "rows_per_second": (round(total_rows / total, 1)
                            if total > 0 else 0.0),
        "stages": stages,
    }
    if histograms:
        document["wave_histograms"] = histograms
    return document


def run_benchmark(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED,
                  parallel_experiments: bool = False,
                  milking_days: Optional[int] = None,
                  campaign_days: Optional[int] = None,
                  sanitize: bool = False) -> Dict[str, Any]:
    """Benchmark a full study in-process and return the payload.

    Stage wall-clock comes from the telemetry registry's stage view
    (``TELEMETRY.stages`` — the perf shell's StageTimer); the metrics
    plane rides along so the payload can carry deterministic wave-size
    and limiter-denial quantiles next to the timings.
    """
    from repro.core.config import StudyConfig
    from repro.experiments.runner import run_full_study
    from repro.perf import StageTimer
    from repro.telemetry import TELEMETRY

    overrides: Dict[str, Any] = {}
    if milking_days is not None:
        overrides["milking_days"] = milking_days
    if campaign_days is not None:
        overrides["campaign_days"] = campaign_days
    config = StudyConfig(scale=scale, seed=seed, **overrides)

    stage_view = TELEMETRY.stages
    stage_view.reset()
    was_enabled = TELEMETRY.enabled
    TELEMETRY.reset()
    TELEMETRY.enable()
    sanitizer_events = None
    if sanitize:
        from repro.sanitizer import SANITIZER

        SANITIZER.reset()
        SANITIZER.enable()
    timer = StageTimer()
    try:
        artifacts, _report = run_full_study(
            config, timer=timer, parallel_experiments=parallel_experiments)
    finally:
        TELEMETRY.enabled = was_enabled
        if sanitize:
            sanitizer_events = SANITIZER.event_total()
            SANITIZER.reset()
            SANITIZER.disable()
    histograms = _wave_histograms(TELEMETRY.snapshot())

    counters = timer.counters
    total_rows = len(artifacts.world.api.log.all())
    stage_seconds = dict(timer.stages)
    stage_events = {
        "build": len(artifacts.world.platform.accounts),
        "milking": counters.get("milking.log_rows", 0),
        "campaign": counters.get("campaign.log_rows", 0),
        "experiments": counters.get("experiments.log_rows", 0),
    }
    detection_seconds = stage_view.seconds("detection")
    if detection_seconds > 0:
        stage_seconds["detection"] = detection_seconds
        stage_events["detection"] = stage_view.counters.get(
            "detection.pairs_scored", 0)
    payload = _payload(scale, seed, parallel_experiments, stage_seconds,
                       stage_events, total_rows, histograms=histograms)
    payload["sanitize"] = sanitize
    if sanitizer_events is not None:
        payload["sanitizer_events"] = sanitizer_events
    return payload


# ----------------------------------------------------------------------
# Subprocess harness — identical timing logic expressed against the
# public runner API only, so it also runs against older trees that
# predate the perf module (for before/after baselines).
# ----------------------------------------------------------------------
_CHILD_SCRIPT = r"""
import json, sys, time
options = json.loads(sys.argv[1])
from repro.core.config import StudyConfig
from repro.experiments import runner

kwargs = {"scale": options["scale"], "seed": options["seed"]}
for key in ("milking_days", "campaign_days"):
    if options.get(key) is not None:
        kwargs[key] = options[key]
config = StudyConfig(**kwargs)

try:
    from repro.sanitizer import SANITIZER
except ImportError:  # baseline tree predates the sanitizer
    SANITIZER = None
if SANITIZER is not None and options.get("sanitize"):
    SANITIZER.reset()
    SANITIZER.enable()

try:
    from repro.telemetry import TELEMETRY
except ImportError:  # baseline tree predates the telemetry plane
    TELEMETRY = None
if TELEMETRY is not None:
    TELEMETRY.reset()
    TELEMETRY.enable()

# Stage scoping: StageTimer's class-level listeners feed the telemetry
# registry's stage stack, so wave histograms recorded inside a stage
# carry its name as the ``stage`` label.  Baseline trees that predate
# the perf module just skip the scoping (no telemetry there anyway).
import contextlib
try:
    from repro.perf import StageTimer as _StageTimer
    _stage_timer = _StageTimer()
except ImportError:
    _stage_timer = None
def _stage(name):
    if _stage_timer is None:
        return contextlib.nullcontext()
    return _stage_timer.stage(name)

seconds, events = {}, {}
start = time.perf_counter()
with _stage("build"):
    artifacts = runner.build_world(config)
seconds["build"] = time.perf_counter() - start
events["build"] = len(artifacts.world.platform.accounts)
log = artifacts.world.api.log

rows0 = len(log.all())
start = time.perf_counter()
with _stage("milking"):
    runner.run_milking(artifacts)
seconds["milking"] = time.perf_counter() - start
rows1 = len(log.all())
events["milking"] = rows1 - rows0

start = time.perf_counter()
with _stage("campaign"):
    runner.run_campaign(artifacts)
seconds["campaign"] = time.perf_counter() - start
rows2 = len(log.all())
events["campaign"] = rows2 - rows1

start = time.perf_counter()
with _stage("experiments"):
    if options.get("parallel_experiments"):
        runner.run_experiments(artifacts, parallel=True)
    else:
        runner.run_experiments(artifacts)
seconds["experiments"] = time.perf_counter() - start
events["experiments"] = rows2

stage_view = getattr(TELEMETRY, "stages", None)
if stage_view is not None and stage_view.seconds("detection") > 0:
    seconds["detection"] = stage_view.seconds("detection")
    events["detection"] = stage_view.counters.get(
        "detection.pairs_scored", 0)

histograms = {}
if TELEMETRY is not None:
    from repro.telemetry.export import histogram_quantiles
    for name, labels, bounds, buckets, total in (
            TELEMETRY.snapshot()["histograms"]):
        if name not in ("wave_size", "wave_limiter_denials"):
            continue
        stage = dict(tuple(pair) for pair in labels).get("stage", "")
        entry = histogram_quantiles(bounds, buckets)
        entry["sum"] = total
        histograms.setdefault(name, {})[stage or "(none)"] = entry

sanitizer_events = None
if SANITIZER is not None and options.get("sanitize"):
    sanitizer_events = SANITIZER.event_total()

print("BENCH_JSON " + json.dumps(
    {"seconds": seconds, "events": events, "total_rows": rows2,
     "histograms": histograms, "sanitizer_events": sanitizer_events}))
"""


def bench_tree(src_dir: str, scale: float = DEFAULT_SCALE,
               seed: int = DEFAULT_SEED,
               parallel_experiments: bool = False,
               milking_days: Optional[int] = None,
               campaign_days: Optional[int] = None,
               sanitize: bool = False,
               timeout: int = 3600) -> Dict[str, Any]:
    """Benchmark the tree rooted at ``src_dir`` in a fresh interpreter.

    ``src_dir`` is the directory that contains the ``repro`` package
    (usually ``<checkout>/src``).  With ``sanitize`` the reprosan
    shadow trace records throughout (trees that predate the sanitizer
    silently skip it).
    """
    options = {
        "scale": scale,
        "seed": seed,
        "parallel_experiments": parallel_experiments,
        "milking_days": milking_days,
        "campaign_days": campaign_days,
        "sanitize": sanitize,
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    result = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, json.dumps(options)],
        capture_output=True, text=True, env=env, timeout=timeout)
    if result.returncode != 0:
        raise RuntimeError(
            f"benchmark subprocess failed for {src_dir}:\n{result.stderr}")
    marker = [line for line in result.stdout.splitlines()
              if line.startswith("BENCH_JSON ")]
    if not marker:
        raise RuntimeError(
            f"benchmark subprocess for {src_dir} produced no payload")
    raw = json.loads(marker[-1][len("BENCH_JSON "):])
    payload = _payload(scale, seed, parallel_experiments,
                       raw["seconds"], raw["events"], raw["total_rows"],
                       histograms=raw.get("histograms") or None)
    payload["src_dir"] = src_dir
    payload["sanitize"] = sanitize
    if raw.get("sanitizer_events") is not None:
        payload["sanitizer_events"] = raw["sanitizer_events"]
    return payload


def _best_of(payloads):
    """The payload with the lowest end-to-end wall clock.

    Workloads are deterministic per (seed, scale), so run-to-run spread
    is scheduler noise; the minimum is the standard low-noise estimator.
    """
    best = min(payloads, key=lambda p: p["total_seconds"])
    best["runs"] = len(payloads)
    best["total_seconds_all_runs"] = [p["total_seconds"] for p in payloads]
    return best


def compare_trees(current_src: str, baseline_src: Optional[str],
                  scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED,
                  parallel_experiments: bool = False,
                  milking_days: Optional[int] = None,
                  campaign_days: Optional[int] = None,
                  repeats: int = 1,
                  sanitize: bool = False) -> Dict[str, Any]:
    """Build the full ``BENCH_PIPELINE.json`` document.

    With ``repeats > 1`` each tree is benchmarked that many times —
    interleaved (current, baseline, current, ...) so slow drift in
    machine load hits both trees alike — and the best run per tree is
    reported.
    """
    if baseline_src:
        validate_baseline(baseline_src)
    kwargs = dict(scale=scale, seed=seed,
                  parallel_experiments=parallel_experiments,
                  milking_days=milking_days, campaign_days=campaign_days,
                  sanitize=sanitize)
    repeats = max(1, repeats)
    current_runs, baseline_runs = [], []
    for _ in range(repeats):
        current_runs.append(bench_tree(current_src, **kwargs))
        if baseline_src:
            baseline_runs.append(bench_tree(baseline_src, **kwargs))
    current = _best_of(current_runs)
    baseline = _best_of(baseline_runs) if baseline_runs else None
    document: Dict[str, Any] = {
        "benchmark": "run_full_study",
        "meta": {
            "scale": scale,
            "seed": seed,
            "milking_days": milking_days,
            "campaign_days": campaign_days,
            "parallel_experiments": parallel_experiments,
            "repeats": repeats,
        },
        "current": current,
    }
    if baseline is not None:
        document["baseline"] = baseline
        if current["total_seconds"] > 0:
            document["speedup"] = round(
                baseline["total_seconds"] / current["total_seconds"], 2)
    return document


def sweep_tree(src_dir: str, scales, seed: int = DEFAULT_SEED,
               milking_days: Optional[int] = None,
               campaign_days: Optional[int] = None,
               repeats: int = 1) -> list:
    """Benchmark ``src_dir`` at each scale in ``scales`` (best of
    ``repeats`` runs per scale) and return the payload list for the
    document's ``sweep`` section.

    Each entry additionally records the study-day overrides so a guard
    run can match a reference entry to its exact workload, not just its
    scale.
    """
    entries = []
    for scale in scales:
        runs = [bench_tree(src_dir, scale=scale, seed=seed,
                           milking_days=milking_days,
                           campaign_days=campaign_days)
                for _ in range(max(1, repeats))]
        payload = _best_of(runs)
        payload["milking_days"] = milking_days
        payload["campaign_days"] = campaign_days
        entries.append(payload)
    return entries


def bench_sanitizer(src_dir: str, current: Dict[str, Any],
                    repeats: int = 1, **kwargs) -> Dict[str, Any]:
    """The document's ``sanitizer`` section: the same workload as
    ``current`` re-benchmarked with the reprosan trace recording, plus
    the per-stage wall-clock overhead fraction vs the untraced run.

    The shadow trace is supposed to be a cheap observer — bounded
    rolling digests, no I/O until export — so the overhead column is
    what keeps hook creep honest (see
    :func:`check_sanitizer_overhead`).
    """
    runs = [bench_tree(src_dir, sanitize=True, **kwargs)
            for _ in range(max(1, repeats))]
    traced = _best_of(runs)
    overhead = {}
    for name, stage in traced["stages"].items():
        base = current["stages"].get(name, {}).get("seconds", 0.0)
        if base > 0:
            overhead[name] = round(stage["seconds"] / base - 1.0, 4)
    return {"run": traced, "overhead": overhead}


def check_sanitizer_overhead(document: Dict[str, Any],
                             limit: float = 0.10) -> str:
    """Guard the sanitizer's campaign-stage overhead.

    Raises :class:`GuardError` when the traced campaign stage ran more
    than ``limit`` (fraction, default 0.10 = 10%) slower than the
    untraced one.  Wall-clock based, so widen ``limit`` on noisy shared
    runners rather than deleting the check.
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
               f"(limit {limit:.0%})")
    if overhead > limit:
        raise GuardError(f"sanitizer overhead regression: {verdict}")
    return f"guard ok: {verdict}"


def _matching_reference(reference: Dict[str, Any], scale: float,
                        milking_days: Optional[int],
                        campaign_days: Optional[int]):
    """The reference payload benchmarked with this exact workload."""
    meta = reference.get("meta", {})
    current = reference.get("current")
    if (current is not None
            and current.get("scale") == scale
            and meta.get("milking_days") == milking_days
            and meta.get("campaign_days") == campaign_days):
        return current
    for entry in reference.get("sweep", ()):
        if (entry.get("scale") == scale
                and entry.get("milking_days") == milking_days
                and entry.get("campaign_days") == campaign_days):
            return entry
    return None


def check_campaign_regression(document: Dict[str, Any],
                              reference: Dict[str, Any],
                              tolerance: float = 0.2) -> str:
    """Guard the campaign stage's throughput against a reference run.

    Compares the freshly benchmarked campaign events/second in
    ``document["current"]`` with the reference entry (main payload or
    sweep entry) that used the identical workload — same scale and day
    overrides.  Raises :class:`GuardError` when throughput dropped by
    more than ``tolerance`` (a fraction, default 0.2 = 20%) or when no
    comparable reference entry exists; returns a human-readable verdict
    otherwise.

    The guard compares wall-clock throughput, so it is only meaningful
    when reference and current run on comparable hardware; widen
    ``tolerance`` on noisy shared runners rather than deleting the
    check.
    """
    current = document["current"]
    meta = document.get("meta", {})
    scale = current.get("scale")
    entry = _matching_reference(reference, scale,
                                meta.get("milking_days"),
                                meta.get("campaign_days"))
    if entry is None:
        raise GuardError(
            f"reference document has no entry for scale={scale} "
            f"milking_days={meta.get('milking_days')} "
            f"campaign_days={meta.get('campaign_days')}; regenerate the "
            "reference with --sweep covering this workload")
    try:
        reference_eps = entry["stages"]["campaign"]["events_per_second"]
        current_eps = current["stages"]["campaign"]["events_per_second"]
    except KeyError as error:
        raise GuardError(
            f"campaign stage missing from payload: {error}") from error
    if reference_eps <= 0:
        raise GuardError(
            f"reference campaign throughput is {reference_eps}; cannot guard")
    floor = reference_eps * (1.0 - tolerance)
    verdict = (f"campaign throughput {current_eps:,.0f} events/s vs "
               f"reference {reference_eps:,.0f} (floor {floor:,.0f} at "
               f"{tolerance:.0%} tolerance)")
    if current_eps < floor:
        raise GuardError(
            f"campaign throughput regression: {verdict}")
    return f"guard ok: {verdict}"


def render(document: Dict[str, Any]) -> str:
    """Human-readable rendering of a benchmark document."""
    lines = []
    for label in ("baseline", "current"):
        payload = document.get(label)
        if payload is None:
            continue
        lines.append(f"{label} ({payload['total_seconds']:.2f}s total, "
                     f"{payload['rows_per_second']:,.0f} rows/s):")
        for name, stage in payload["stages"].items():
            lines.append(
                f"  {name:<12} {stage['seconds']:>8.2f}s  "
                f"{stage['events']:>9,} {stage['event_unit']}  "
                f"({stage['events_per_second']:,.0f}/s)")
        for family, by_stage in payload.get("wave_histograms",
                                            {}).items():
            for stage_name, entry in by_stage.items():
                quantiles = " ".join(
                    f"{k}={'inf' if entry[k] is None else entry[k]}"
                    for k in ("p50", "p95", "p99"))
                lines.append(
                    f"  {family:<20} [{stage_name}] "
                    f"count={entry['count']} {quantiles}")
    if "speedup" in document:
        lines.append(f"speedup: {document['speedup']:.2f}x")
    sanitizer = document.get("sanitizer")
    if sanitizer:
        run = sanitizer["run"]
        events = run.get("sanitizer_events")
        traced = (f"sanitized run ({run['total_seconds']:.2f}s total"
                  + (f", {events:,} trace events" if events else "")
                  + "):")
        lines.append(traced)
        for name, fraction in sanitizer["overhead"].items():
            seconds = run["stages"][name]["seconds"]
            lines.append(f"  {name:<12} {seconds:>8.2f}s  "
                         f"overhead {fraction:+.1%}")
    sweep = document.get("sweep")
    if sweep:
        lines.append("scale sweep (current tree):")
        for payload in sweep:
            campaign = payload["stages"].get("campaign", {})
            lines.append(
                f"  scale {payload['scale']:<6}  "
                f"{payload['total_seconds']:>8.2f}s total  "
                f"{payload['total_log_rows']:>9,} rows  "
                f"campaign {campaign.get('events_per_second', 0.0):,.0f}/s")
    return "\n".join(lines)
