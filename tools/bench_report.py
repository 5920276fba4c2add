#!/usr/bin/env python3
"""Benchmark the measurement pipeline and write BENCH_PIPELINE.json.

Runs ``run_full_study`` stage by stage (build, milking, campaign,
detection, experiments) in a fresh interpreter, records wall-clock
seconds and events/second per stage, and —
when ``--baseline`` points at another checkout's ``src`` directory
(e.g. a git worktree of the pre-optimisation commit) — benchmarks both
trees with the identical workload and reports the end-to-end speedup.

Examples
--------
Current tree only (the CI smoke configuration)::

    python tools/bench_report.py --scale 0.002 --milking-days 6 \
        --campaign-days 20 --out BENCH_PIPELINE.json

Before/after against a baseline worktree::

    git worktree add /tmp/baseline <ref>
    python tools/bench_report.py --baseline /tmp/baseline/src

Scale sweep plus regression guard (the committed reference document)::

    python tools/bench_report.py --sweep --out BENCH_PIPELINE.json
    python tools/bench_report.py --scale 0.001 --out /tmp/guard.json \
        --guard BENCH_PIPELINE.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC_DIR)

from repro.perf import bench  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=bench.DEFAULT_SCALE)
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    parser.add_argument("--milking-days", type=int, default=None)
    parser.add_argument("--campaign-days", type=int, default=None)
    parser.add_argument("--parallel-experiments", action="store_true")
    parser.add_argument("--repeats", type=int, default=1,
                        help="benchmark each tree this many times "
                             "(interleaved) and report the best run")
    parser.add_argument("--baseline", type=str, default=None,
                        help="src dir of the baseline tree to compare "
                             "against")
    parser.add_argument("--sweep", type=str, nargs="?",
                        const="0.001,0.01,0.1", default=None,
                        metavar="SCALES",
                        help="also benchmark the current tree at these "
                             "comma-separated scales (default "
                             "0.001,0.01,0.1) and record a 'sweep' "
                             "section in the document")
    parser.add_argument("--guard", type=str, default=None,
                        metavar="REFERENCE_JSON",
                        help="compare campaign events/s against the "
                             "matching entry (same scale and day "
                             "overrides) of this reference document; "
                             "exit 3 if throughput dropped by more than "
                             "--guard-tolerance")
    parser.add_argument("--guard-tolerance", type=float, default=0.2,
                        help="allowed fractional campaign throughput "
                             "drop before --guard fails (default 0.2)")
    parser.add_argument("--sanitize", action="store_true",
                        help="also benchmark the workload with the "
                             "reprosan shadow trace recording and "
                             "record a 'sanitizer' overhead section")
    parser.add_argument("--sanitize-limit", type=float, default=0.10,
                        help="allowed fractional campaign-stage "
                             "slowdown under --sanitize before the "
                             "overhead guard fails (default 0.10)")
    parser.add_argument("--out", type=str,
                        default=os.path.join(REPO_ROOT,
                                             "BENCH_PIPELINE.json"))
    args = parser.parse_args(argv)

    try:
        document = bench.compare_trees(
            current_src=SRC_DIR, baseline_src=args.baseline,
            scale=args.scale, seed=args.seed,
            parallel_experiments=args.parallel_experiments,
            milking_days=args.milking_days,
            campaign_days=args.campaign_days,
            repeats=args.repeats)
    except bench.BaselineError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.sweep:
        scales = [float(token) for token in args.sweep.split(",") if token]
        document["sweep"] = bench.sweep_tree(
            SRC_DIR, scales, seed=args.seed,
            milking_days=args.milking_days,
            campaign_days=args.campaign_days, repeats=args.repeats)

    if args.sanitize:
        document["sanitizer"] = bench.bench_sanitizer(
            SRC_DIR, document["current"], repeats=args.repeats,
            scale=args.scale, seed=args.seed,
            parallel_experiments=args.parallel_experiments,
            milking_days=args.milking_days,
            campaign_days=args.campaign_days)

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(bench.render(document))
    print(f"wrote {args.out}")

    if args.guard:
        with open(args.guard, "r", encoding="utf-8") as handle:
            reference = json.load(handle)
        try:
            print(bench.check_campaign_regression(
                document, reference, tolerance=args.guard_tolerance))
        except bench.GuardError as error:
            print(f"error: {error}", file=sys.stderr)
            return 3
    if args.sanitize:
        try:
            print(bench.check_sanitizer_overhead(
                document, limit=args.sanitize_limit))
        except bench.GuardError as error:
            print(f"error: {error}", file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
