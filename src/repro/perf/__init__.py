"""Perf instrumentation for the measurement pipeline.

``StageTimer`` accumulates wall-clock time and event counters per named
pipeline stage; ``TELEMETRY.stages`` is the process-global one that
deeply nested code (e.g. the campaign's detection passes) records into
without any plumbing.  ``tools/bench_report.py`` turns its timings into
the throughput report ``BENCH_PIPELINE.json``.
"""

from repro.perf.instrumentation import StageTimer, paused_gc

__all__ = ["StageTimer", "paused_gc"]
