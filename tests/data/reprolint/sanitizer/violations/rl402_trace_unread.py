"""Fixture: RL402 — a merge that never reads the delta's trace slices."""

from dataclasses import dataclass


@dataclass(frozen=True)
class WorkDayDelta:
    rows: tuple
    trace: tuple


def export_day(rows, sanitizer, base):
    return WorkDayDelta(rows=tuple(rows),
                        trace=sanitizer.capture_slice(
                            base, sanitizer.capture_mark()))


def merge(delta):
    return delta.rows
