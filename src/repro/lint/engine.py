"""The reprolint engine: file walking, pragmas, reporting.

Paths are normalised to posix relative to the scan root's *parent*
(``src/repro`` scans as ``repro/...``), which keeps allowlists and
SARIF fingerprints stable across checkouts and installs.

Since v2 the engine is project-aware: every module that parses is
indexed into a :class:`~repro.lint.graph.ProjectGraph` (symbol table,
import/call graph, function summaries solved to a fixpoint) before any
rule runs, so per-module rules can consult cross-module facts and
:class:`~repro.lint.rules.ProjectRule` subclasses run once over the
whole graph.  Files that fail to parse (or read) become ``RL000``
findings instead of aborting the run.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.rules import (
    DEFAULT_ALLOWLIST,
    ModuleContext,
    ProjectRule,
    Rule,
    default_rules,
)

_PRAGMA = re.compile(
    r"#\s*reprolint:\s*disable(?P<scope>-file)?\s*=\s*"
    r"(?P<rules>all|RL\d+(?:\s*,\s*RL\d+)*)", re.IGNORECASE)

#: (line -> disabled rule ids, file-wide disabled ids)
Pragmas = Tuple[Dict[int, Set[str]], Set[str]]


def parse_pragmas(lines: Sequence[str]) -> Pragmas:
    """Return (line -> disabled rule ids, file-wide disabled ids).

    ``all`` disables every rule; trailing justification text after the
    rule list is encouraged and ignored by the parser.
    """
    per_line: Dict[int, Set[str]] = {}
    per_file: Set[str] = set()
    for index, line in enumerate(lines, start=1):
        match = _PRAGMA.search(line)
        if not match:
            continue
        rules = {part.strip().upper()
                 for part in match.group("rules").split(",")}
        if match.group("scope"):
            per_file |= rules
        else:
            per_line.setdefault(index, set()).update(rules)
    return per_line, per_file


def _suppressed(rule_id: str, line: int,
                per_line: Dict[int, Set[str]],
                per_file: Set[str]) -> bool:
    def hit(rules: Set[str]) -> bool:
        return "ALL" in rules or rule_id in rules
    if hit(per_file):
        return True
    rules = per_line.get(line)
    return rules is not None and hit(rules)


def _parse_error_finding(path: str, error: SyntaxError) -> Finding:
    return Finding(path=path, line=error.lineno or 1,
                   col=(error.offset or 0) + 1, rule="RL000",
                   severity=Severity.ERROR,
                   message=f"syntax error: {error.msg}",
                   hint="fix the parse error; unparsable files are "
                        "invisible to every other rule")


@dataclass
class LintReport:
    """Outcome of one engine run."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    #: findings silenced by an in-source ``reprolint: disable`` pragma;
    #: never failing, but carried into SARIF as inSource suppressions
    suppressed: List[Finding] = field(default_factory=list)

    # ------------------------------------------------------------------
    def failing(self, fail_on: Severity) -> List[Finding]:
        """Findings at or above the threshold."""
        return [finding for finding in self.findings
                if finding.severity >= fail_on]

    def exit_code(self, fail_on: Optional[Severity]) -> int:
        if fail_on is None:
            return 0
        return 1 if self.failing(fail_on) else 0

    def summary(self, fail_on: Optional[Severity]) -> Dict[str, int]:
        return {
            "files": self.files_scanned,
            "findings": len(self.findings),
            "failing": (len(self.failing(fail_on))
                        if fail_on is not None else 0),
        }

    def render_text(self, fail_on: Optional[Severity]) -> str:
        parts = [finding.render() for finding in self.findings]
        stats = self.summary(fail_on)
        parts.append(
            f"reprolint: {stats['files']} files, "
            f"{stats['findings']} findings ({stats['failing']} failing)")
        return "\n".join(parts)

    def render_json(self, fail_on: Optional[Severity]) -> str:
        payload = {
            "findings": [finding.to_dict() for finding in self.findings],
            "summary": self.summary(fail_on),
            "fail_on": str(fail_on) if fail_on is not None else "never",
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def render_sarif(self) -> str:
        from repro.lint.sarif import render_sarif

        return render_sarif(self)


class LintEngine:
    """Run a rule set over files/trees, applying allowlist + pragmas."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None,
                 allowlist: Optional[Dict[str, Tuple[str, ...]]] = None
                 ) -> None:
        self.rules = list(rules) if rules is not None else default_rules()
        self.allowlist = (dict(DEFAULT_ALLOWLIST) if allowlist is None
                          else dict(allowlist))

    # ------------------------------------------------------------------
    def _allowlisted(self, rule_id: str, path: str) -> bool:
        return any(path.startswith(prefix)
                   for prefix in self.allowlist.get(rule_id, ()))

    # ------------------------------------------------------------------
    # Core: contexts -> findings
    # ------------------------------------------------------------------
    def _run_contexts(self, contexts: Sequence[ModuleContext],
                      pragma_map: Dict[str, Pragmas]
                      ) -> Tuple[List[Finding], List[Finding]]:
        """Build the project graph, run every rule, filter and sort.

        Returns ``(kept, suppressed)`` — pragma-silenced findings are
        kept aside so SARIF can record them as inSource suppressions.
        """
        from repro.lint.graph import ProjectGraph

        graph = ProjectGraph.build(contexts)
        raw: List[Finding] = []
        module_rules = [rule for rule in self.rules
                        if not isinstance(rule, ProjectRule)]
        project_rules = [rule for rule in self.rules
                         if isinstance(rule, ProjectRule)]
        for ctx in contexts:
            for rule in module_rules:
                raw.extend(rule.run(ctx))
        for rule in project_rules:
            raw.extend(rule.run_project(graph))
        kept: List[Finding] = []
        suppressed: List[Finding] = []
        for finding in raw:
            if self._allowlisted(finding.rule, finding.path):
                continue
            pragmas = pragma_map.get(finding.path)
            if pragmas is not None and _suppressed(
                    finding.rule, finding.line, *pragmas):
                suppressed.append(finding)
                continue
            kept.append(finding)
        order = lambda f: (f.path, f.line, f.col, f.rule)  # noqa: E731
        kept.sort(key=order)
        suppressed.sort(key=order)
        return kept, suppressed

    def lint_module(self, path: str, source: str) -> List[Finding]:
        """All findings for one module (pragmas applied)."""
        try:
            ctx = ModuleContext.build(path, source)
        except SyntaxError as error:
            return [_parse_error_finding(path, error)]
        pragmas = parse_pragmas(ctx.lines)
        kept, _suppressed_findings = self._run_contexts(
            [ctx], {path: pragmas})
        return kept

    # ------------------------------------------------------------------
    # File collection
    # ------------------------------------------------------------------
    @staticmethod
    def _display_path(source: Path) -> str:
        """Normalised path for a single-file target: anchored at the
        last ``repro`` component when present (matches tree scans)."""
        parts = source.as_posix().split("/")
        if "repro" in parts:
            index = len(parts) - 1 - parts[::-1].index("repro")
            return "/".join(parts[index:])
        return source.name

    def _collect_files(self, targets: Iterable[Path]
                       ) -> List[Tuple[str, Path]]:
        collected: List[Tuple[str, Path]] = []
        for target in targets:
            target = Path(target)
            if target.is_dir():
                for source in sorted(target.rglob("*.py")):
                    if "__pycache__" in source.parts:
                        continue
                    rel = source.relative_to(target).as_posix()
                    collected.append((f"{target.name}/{rel}", source))
            else:
                collected.append((self._display_path(target), target))
        return collected

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    def run(self, targets: Iterable[Path]) -> LintReport:
        return self.run_files(self._collect_files(targets))

    def run_files(self, pairs: Sequence[Tuple[str, Path]]) -> LintReport:
        """Lint explicit (display path, file) pairs as one project."""
        report = LintReport()
        contexts: List[ModuleContext] = []
        pragma_map: Dict[str, Pragmas] = {}
        for path, source_path in pairs:
            report.files_scanned += 1
            try:
                source = source_path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as error:
                report.findings.append(Finding(
                    path=path, line=1, col=1, rule="RL000",
                    severity=Severity.ERROR,
                    message=f"unreadable file: {error}"))
                continue
            try:
                ctx = ModuleContext.build(path, source)
            except SyntaxError as error:
                report.findings.append(_parse_error_finding(path, error))
                continue
            contexts.append(ctx)
            pragma_map[path] = parse_pragmas(ctx.lines)
        kept, report.suppressed = self._run_contexts(contexts,
                                                     pragma_map)
        report.findings.extend(kept)
        report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return report


def lint_source(source: str, path: str = "repro/module.py",
                rules: Optional[Sequence[Rule]] = None,
                allowlist: Optional[Dict[str, Tuple[str, ...]]] = None
                ) -> List[Finding]:
    """Convenience for tests: lint one source string."""
    engine = LintEngine(rules=rules,
                        allowlist=allowlist if allowlist is not None
                        else {})
    return engine.lint_module(path, source)
