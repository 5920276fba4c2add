"""Finding and severity primitives shared by the rule engine."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Tuple


class Severity(enum.IntEnum):
    """Ordered severities; ``--fail-on`` compares against this order."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, name: str) -> "Severity":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown severity {name!r}; expected one of "
                             f"{[str(s) for s in cls]}") from None


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``path`` is normalised (posix, relative to the scan root's parent)
    so allowlists are stable across checkouts.  The ``snippet`` — the
    stripped source line — is part of the SARIF fingerprint, so a
    finding keeps its identity across unrelated line-number drift.
    """

    path: str
    line: int
    col: int
    rule: str
    severity: Severity
    message: str
    hint: str = ""
    snippet: str = ""

    def fingerprint(self) -> Tuple[str, str, str]:
        return (self.path, self.rule, self.snippet)

    def render(self) -> str:
        text = (f"{self.path}:{self.line}:{self.col}: {self.rule} "
                f"{self.severity}: {self.message}")
        if self.hint:
            text += f"\n    hint: {self.hint}"
        if self.snippet:
            text += f"\n    >>> {self.snippet}"
        return text

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
            "hint": self.hint,
            "snippet": self.snippet,
        }
