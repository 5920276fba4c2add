"""Command-line front end: ``repro lint`` / ``python -m repro.lint``.

Exit codes: 0 clean, 1 failing findings at or above ``--fail-on``,
2 usage errors (missing target).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.engine import LintEngine
from repro.lint.findings import Severity


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to lint (default: src/repro under "
             "the current directory, else the installed repro package)")
    parser.add_argument(
        "--fail-on", choices=["error", "warning", "info", "never"],
        default="warning",
        help="lowest severity that makes the run fail (default: warning)")
    parser.add_argument(
        "--format", choices=["text", "json", "sarif"], default=None,
        dest="fmt",
        help="report format (default: text)")
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="shorthand for --format json")
    parser.add_argument(
        "--out", type=str, default=None,
        help="also write the report to this file")


def _default_targets() -> List[Path]:
    local = Path("src") / "repro"
    if local.is_dir():
        return [local]
    import repro

    return [Path(repro.__file__).resolve().parent]


def run(args: argparse.Namespace) -> int:
    targets = list(args.paths) or _default_targets()
    for target in targets:
        if not target.exists():
            print(f"error: no such path: {target}", file=sys.stderr)
            return 2
    report = LintEngine().run(targets)
    fail_on = (None if args.fail_on == "never"
               else Severity.parse(args.fail_on))
    fmt = args.fmt or ("json" if args.as_json else "text")
    if fmt == "sarif":
        text = report.render_sarif()
    elif fmt == "json":
        text = report.render_json(fail_on)
    else:
        text = report.render_text(fail_on)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return report.exit_code(fail_on)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="reprolint: determinism & discipline static analysis")
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
