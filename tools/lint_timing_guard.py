#!/usr/bin/env python
"""Guard the full-tree reprolint wall time against regression.

``--record`` measures the current tree and writes the baseline JSON
(``tools/reprolint_timing.json``); the default check mode re-measures
and exits 1 when the run exceeds ``multiplier`` x the recorded
seconds.  Each measurement parses and analyzes every file anew and
the best of ``--repeats`` runs counts, so the number is the real cold
parse+analyze cost.  The default 3x multiplier is deliberately
generous: the guard exists to catch the fixpoint going quadratic on a
growing tree, not a shared-runner blip — widen it further before
weakening the analysis.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent / \
    "reprolint_timing.json"
DEFAULT_TARGETS = ["src/repro"]
DEFAULT_MULTIPLIER = 3.0


def measure(targets, repeats: int):
    """Best-of-N cold wall seconds (and files scanned) for one tree."""
    from repro.lint.engine import LintEngine

    best = None
    files = 0
    for _ in range(repeats):
        engine = LintEngine()
        start = time.perf_counter()
        report = engine.run([Path(target) for target in targets])
        elapsed = time.perf_counter() - start
        files = report.files_scanned
        best = elapsed if best is None else min(best, elapsed)
    return best, files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("targets", nargs="*", default=None,
                        help=f"trees to lint (default: "
                             f"{' '.join(DEFAULT_TARGETS)})")
    parser.add_argument("--baseline", type=Path,
                        default=DEFAULT_BASELINE,
                        help="baseline JSON path")
    parser.add_argument("--record", action="store_true",
                        help="measure and (re)write the baseline")
    parser.add_argument("--repeats", type=int, default=3,
                        help="measurement runs; best one counts "
                             "(default: 3)")
    parser.add_argument("--multiplier", type=float, default=None,
                        help="override the budget multiplier "
                             f"(default: baseline value or "
                             f"{DEFAULT_MULTIPLIER})")
    args = parser.parse_args(argv)
    targets = args.targets or DEFAULT_TARGETS

    if args.record:
        seconds, files = measure(targets, args.repeats)
        payload = {
            "targets": targets,
            "seconds": round(seconds, 3),
            "files": files,
            "multiplier": args.multiplier or DEFAULT_MULTIPLIER,
        }
        args.baseline.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"recorded: {files} files in {seconds:.2f}s "
              f"-> {args.baseline}")
        return 0

    try:
        recorded = json.loads(args.baseline.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        print(f"error: cannot load timing baseline "
              f"{args.baseline}: {error}", file=sys.stderr)
        return 2
    targets = args.targets or recorded.get("targets", DEFAULT_TARGETS)
    multiplier = (args.multiplier if args.multiplier is not None
                  else recorded.get("multiplier", DEFAULT_MULTIPLIER))
    budget = recorded["seconds"] * multiplier
    seconds, files = measure(targets, args.repeats)
    verdict = "ok" if seconds <= budget else "FAIL"
    print(f"lint timing: {files} files in {seconds:.2f}s "
          f"(budget {budget:.2f}s = {recorded['seconds']}s x "
          f"{multiplier:g}) {verdict}")
    if seconds > budget:
        print("lint wall time regressed past the recorded budget; "
              "profile the new rules or re-record with --record after "
              "an audited change", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
