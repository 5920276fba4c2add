"""Stage timers and event counters for pipeline benchmarking."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List


@contextmanager
def paused_gc() -> Iterator[None]:
    """Suspend generational garbage collection for a pipeline stage.

    The simulation's hot paths allocate millions of short-lived,
    acyclic objects (likes, activity records, limiter events); cyclic
    collection passes over those nurseries are pure overhead — roughly
    10% of campaign wall clock.  Collection is re-enabled (never forced)
    on exit, so any cycles are reclaimed at the next natural threshold.
    Nested uses are safe: only the outermost re-enables.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class StageTimer:
    """Accumulates wall-clock seconds and event counts per stage.

    Stages may run more than once (e.g. the campaign's periodic
    detection passes); their durations accumulate.  Counters attach
    throughput numerators to stages — ``events_per_second`` divides
    one by the other.
    """

    __slots__ = ("stages", "counters")

    #: Stage-boundary observers shared by every timer instance —
    #: called as ``listener(name, entering)``.  The telemetry registry
    #: hooks in here to know the current stage, so the hook must fire
    #: for ad-hoc bench timers as well as its own stage view.
    listeners: List[Callable[[str, bool], None]] = []

    def __init__(self) -> None:
        self.stages: Dict[str, float] = {}
        self.counters: Dict[str, int] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        for listener in StageTimer.listeners:
            listener(name, True)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self.stages[name] = self.stages.get(name, 0.0) + elapsed
            for listener in StageTimer.listeners:
                listener(name, False)

    def add(self, name: str, seconds: float) -> None:
        self.stages[name] = self.stages.get(name, 0.0) + seconds

    def count(self, name: str, events: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + events

    def count_many(self, counts: Dict[str, int], prefix: str = "") -> None:
        """Merge a whole counter dict (e.g. fault/retry tallies)."""
        for name, events in counts.items():
            self.count(prefix + name, events)

    def seconds(self, name: str) -> float:
        return self.stages.get(name, 0.0)

    def events_per_second(self, stage: str, counter: str) -> float:
        elapsed = self.stages.get(stage, 0.0)
        if elapsed <= 0.0:
            return 0.0
        return self.counters.get(counter, 0) / elapsed

    def total_seconds(self) -> float:
        return sum(self.stages.values())

    def reset(self) -> None:
        self.stages.clear()
        self.counters.clear()

