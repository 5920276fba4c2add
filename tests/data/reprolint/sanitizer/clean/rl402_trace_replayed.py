"""Fixture: clean counterpart of rl402_trace_unread — the merge replays
the delta's trace slices."""

from dataclasses import dataclass


@dataclass(frozen=True)
class WorkDayDelta:
    rows: tuple
    trace: tuple


def export_day(rows, sanitizer, base):
    return WorkDayDelta(rows=tuple(rows),
                        trace=sanitizer.capture_slice(
                            base, sanitizer.capture_mark()))


def merge(delta, sanitizer):
    sanitizer.replay(delta.trace)
    return delta.rows
