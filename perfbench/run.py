"""The repository benchmark: run one workload, check it, print metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign --seed 2017 \
        --seconds 40 --trace 0
    python3 perfbench/run.py --workload all        # every workload

Each study runs in a fresh interpreter (``study.py``) with
``PYTHONPATH=src`` and ``PYTHONHASHSEED`` pinned.  Studies repeat while
the next one should end within ``--seconds`` (and at least
:data:`MIN_STUDIES` run), each after a block of the reference kernel in
``calibrate.py``.  The end-to-end metrics aggregate the studies that
passed every correctness check (see :data:`AGGREGATE`), with the time
metrics scaled to the reference host speed.  ``--trace 1`` adds one
traced study after them and reports the per-layer metrics instead.  The
last stdout line is the JSON result; the lines before it are the
human-readable report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import calibrate
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Pinned string-hash seed: the simulated trajectory (and so the amount
#: of work) still depends on it.
HASHSEED = "0"
#: Studies per run even when ``--seconds`` has already passed.
MIN_STUDIES = 3
#: Time kept free for the traced study, in untraced study lengths.
TRACE_RESERVE = 1.3
#: Wall-clock budget of a whole run; a study still going past it fails.
RUN_BUDGET_S = 170.0
WORK_DIR = os.path.join(ROOT, ".bench_work")

#: End-to-end metrics: name -> unit.
END_TO_END = {"study_s": "s", "setup_s": "s", "campaign_rps": "1/s",
              "peak_rss_mb": "MiB"}
#: How each end-to-end metric aggregates a run's studies, before the
#: time metrics are scaled to the reference host speed (``calibrate``).
#: The host's speed switches between levels within seconds, so the
#: per-study times are bimodal; a mean over the run moves less than
#: their median does.
AGGREGATE = {"study_s": "mean over seeds of the seed's mean",
             "setup_s": "median",
             "campaign_rps": "all rows / all campaign seconds",
             "peak_rss_mb": "median"}


class BenchmarkError(RuntimeError):
    """The checkout cannot be benchmarked."""


def _source_digest() -> str:
    """sha256 over ``src/**/*.py`` — the checkout need not be a git repo."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for root, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _git_commit() -> Optional[str]:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]),
                      encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return None


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_study(workload: str, seed: int, trace: bool, index: int,
              workdir: str, timeout: float,
              scale: Optional[float] = None) -> Dict[str, Any]:
    """One study in a fresh interpreter; returns its payload or, on a
    crash or timeout, ``{"error": ...}``."""
    study_dir = os.path.join(workdir, f"study-{index}")
    os.makedirs(study_dir)
    options = {"workload": workload, "seed": seed, "trace": trace,
               "workdir": study_dir, "scale": scale}
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED=HASHSEED)
    # Own process group, so a timeout also takes down forked shard
    # children of the study.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "study.py"),
         json.dumps(options)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        proc.communicate()
        return {"error": f"timed out after {timeout:.0f}s"}
    finally:
        if proc.poll() is None:
            _kill_group(proc)
            proc.wait()
        shutil.rmtree(study_dir, ignore_errors=True)
    marker = [line for line in stdout.splitlines()
              if line.startswith("STUDY_JSON ")]
    if proc.returncode != 0 or not marker:
        tail = stderr.strip().splitlines()[-3:]
        return {"error": f"exit {proc.returncode}: " + " | ".join(tail)}
    return json.loads(marker[-1][len("STUDY_JSON "):])


def check_study(study: Dict[str, Any], workload: workloads.Workload,
                reference: Optional[str]) -> List[str]:
    """Correctness problems of one study (empty when it passed)."""
    if "error" in study:
        return [study["error"]]
    problems = []
    if reference is not None and study["digest"] != reference:
        problems.append(f"request-log digest {study['digest'][:12]} != "
                        f"{reference[:12]}")
    if workload.experiments and study["score_passed"] < study["score_total"]:
        problems.append(f"score {study['score_passed']}/"
                        f"{study['score_total']}: "
                        + "; ".join(study["score_failures"]))
    if workload.durable:
        if study["journal_rows"] != study["campaign_rows"]:
            problems.append(f"journal chain holds {study['journal_rows']} "
                            f"rows, campaign logged {study['campaign_rows']}")
        if not study["shard_eligible"] or (study["effective_shards"]
                                           != workload.shards):
            problems.append(f"shard plan not eligible for {workload.shards} "
                            f"shards (effective {study['effective_shards']})")
        if study["sanitizer_events"] <= 0:
            problems.append("sanitizer recorded no events")
        if study["telemetry_counters"] <= 0 or study["telemetry_spans"] <= 0:
            problems.append("telemetry recorded no counters or spans")
    if study["traced"] and not study["wrappers_restored"]:
        problems.append("layer wrappers were not restored")
    return problems


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: Optional[float] = None,
                 min_studies: int = MIN_STUDIES
                 ) -> Tuple[Dict[str, Any], List[str]]:
    """Run one workload; returns (result object, report lines)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        raise BenchmarkError(f"no repro package under {ROOT}/src")
    workload = workloads.get(name, scale)
    seeds = workloads.study_seeds(seed)
    lines = ["META " + json.dumps({
        "workload": name, "seed": seed, "study_seeds": list(seeds),
        **workload.describe(),
        "pythonhashseed": HASHSEED, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": _git_commit(),
        "source_sha256": _source_digest(), "seconds": seconds,
        "trace": trace}, sort_keys=True)]
    workdir = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(workdir)
    start = perf_counter()
    studies: List[Dict[str, Any]] = []
    lengths: List[float] = []
    blocks: List[float] = []
    try:
        # A study starts only when it should end within ``--seconds``
        # (judged by the median length so far), leaving room for the
        # traced study, so a run lasts about ``--seconds``.
        while True:
            elapsed = perf_counter() - start
            expected = statistics.median(lengths) if lengths else 0.0
            reserve = TRACE_RESERVE * expected if trace else 0.0
            if (len(studies) >= min_studies
                    and elapsed + expected + reserve > seconds):
                break
            blocks.append(calibrate.block())
            remaining = RUN_BUDGET_S - (perf_counter() - start)
            studies.append(run_study(name, seeds[len(studies) % len(seeds)],
                                     False, len(studies), workdir,
                                     max(remaining, 1.0), scale))
            lengths.append(perf_counter() - start - elapsed)
        if trace:
            remaining = RUN_BUDGET_S - (perf_counter() - start)
            studies.append(run_study(name, seeds[0], True, len(studies),
                                     workdir, max(remaining, 1.0), scale))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    # Each seed's first digest is the one its other studies must match.
    references: Dict[int, str] = {}
    for study in studies:
        if "digest" in study:
            references.setdefault(study["seed"], study["digest"])
    passed: List[Dict[str, Any]] = []
    for index, study in enumerate(studies):
        problems = check_study(study, workload,
                               references.get(study.get("seed")))
        label = "traced" if study.get("traced") else "study"
        if problems:
            lines.append(f"{label} {index}: FAILED " + "; ".join(problems))
            continue
        passed.append(study)
        score = (f" score {study['score_passed']}/{study['score_total']}"
                 if workload.experiments else
                 f" journal_rows {study['journal_rows']}"
                 f" shards {study['effective_shards']}"
                 f" sanitizer_events {study['sanitizer_events']}"
                 f" spans {study['telemetry_spans']}")
        lines.append(
            f"{label} {index}: seed {study['seed']} study_s "
            f"{study['study_s']:.3f} setup_s "
            f"{study['setup_s']:.3f} campaign_s {study['campaign_s']:.3f} "
            f"campaign_rows {study['campaign_rows']} peak_rss_mb "
            f"{study['peak_rss_mb']:.1f} digest {study['digest'][:12]}"
            + score)
        if study.get("layers_missing"):
            lines.append(f"{label} {index}: layers not found: "
                         + ", ".join(study["layers_missing"]))
    failed = len(studies) - len(passed)
    error_rate = failed / len(studies)
    timed = [s for s in passed if not s["traced"]]
    traced = [s for s in passed if s["traced"]]
    digests = ", ".join(f"{key} {value[:16]}"
                        for key, value in references.items()) or "none"
    lines.append(f"correctness: {len(passed)}/{len(studies)} studies "
                 f"passed; request-log digest by seed: {digests}; "
                 f"error_rate {error_rate:.3f}")

    metrics: Dict[str, Dict[str, Any]] = {}
    if timed:
        by_seed: Dict[int, List[float]] = {}
        for study in timed:
            by_seed.setdefault(study["seed"], []).append(study["study_s"])
        samples = {
            "study_s": [s["study_s"] for s in timed],
            "setup_s": [s["setup_s"] for s in timed],
            "campaign_rps": [s["campaign_rows"] / s["campaign_s"]
                             for s in timed],
            "peak_rss_mb": [s["peak_rss_mb"] for s in timed],
        }
        measured = {
            "study_s": statistics.fmean(statistics.fmean(times)
                                        for times in by_seed.values()),
            "setup_s": statistics.median(samples["setup_s"]),
            "campaign_rps": (sum(s["campaign_rows"] for s in timed)
                             / sum(s["campaign_s"] for s in timed)),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        }
        kernel_s = statistics.fmean(blocks)
        speed = calibrate.REFERENCE_S / kernel_s
        lines.append(f"host speed: reference kernel {kernel_s * 1e3:.1f} ms "
                     f"a pass over {len(blocks)} blocks, against "
                     f"{calibrate.REFERENCE_S * 1e3:.0f} ms; times scale "
                     f"by {speed:.4f}")
        values = {
            "study_s": measured["study_s"] * speed,
            "setup_s": measured["setup_s"] * speed,
            "campaign_rps": measured["campaign_rps"] / speed,
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        for metric, unit in END_TO_END.items():
            q1, median, q3 = _quartiles(samples[metric])
            lines.append(f"{metric:<14} {values[metric]:>12.4f} {unit:<6} "
                         f"(measured {measured[metric]:.4f}: "
                         f"{AGGREGATE[metric]} of {len(timed)}; median "
                         f"{median:.4f} q1 {q1:.4f} q3 {q3:.4f})")
            if not trace:
                metrics[metric] = {"value": values[metric], "unit": unit}
    if trace and traced and timed:
        untraced = statistics.median(
            by_seed.get(traced[0]["seed"]) or samples["study_s"])
        layer_values = dict(traced[0]["layers"])
        layer_values["traced.study_s"] = traced[0]["study_s"]
        layer_values["trace_overhead"] = 100.0 * (
            traced[0]["study_s"] / untraced - 1.0)
        layer_values["error_rate"] = error_rate
        for metric, (unit, _better) in per_layer_catalog().items():
            metrics[metric] = {"value": layer_values[metric], "unit": unit}
            lines.append(f"{metric:<44} {layer_values[metric]:>14.4f} "
                         f"{unit}")
    complete = bool(timed) and (bool(traced) or not trace)
    result = {"correct": failed == 0 and complete,
              "attempted": len(studies), "failed": failed,
              "metrics": metrics}
    return result, lines


def per_layer_catalog() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric of a traced run: name -> (unit, better)."""
    catalog = layers.metric_catalog()
    catalog["traced.study_s"] = ("s", "lower")
    catalog["trace_overhead"] = ("%", "lower")
    catalog["error_rate"] = ("fraction", "lower")
    return catalog


def _exit_on_signal(signum: int, _frame) -> None:
    """SIGTERM unwinds like an exception, so running studies are killed."""
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_signal)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    combined: Dict[str, Any] = {"correct": True, "attempted": 0,
                                "failed": 0, "metrics": {}}
    for name in names:
        try:
            result, lines = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace))
        except BenchmarkError as error:
            print(f"benchmark: {error}", file=sys.stderr)
            return 2
        print("\n".join(lines), flush=True)
        if len(names) == 1:
            combined = result
            break
        print(f"RESULT {name} " + json.dumps(result), flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined), flush=True)
    return 0 if combined["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
