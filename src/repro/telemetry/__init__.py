"""Deterministic telemetry plane: metrics, spans, shard-merged exports.

The subsystem watches the pipeline the way the paper's operators watched
production (§5-§6: rate-limit deployments, invalidation bursts, live
SynchroTrap) while staying invisible to the simulation itself: seeded
runs with telemetry enabled are byte-identical to runs with it
disabled, and sharded runs merge child deltas into exactly the metrics
a serial run records.

Layout:

- :mod:`repro.telemetry.registry` — counters/gauges/histograms keyed by
  name + sorted label tuples (integer-valued, so merges are exact).
  The registry is one of the campaign's state parts and moves as a
  delta: a day checkpoint carries its ``export_delta()`` against the
  previous day's ``mark()``, and a shard worker ships one against its
  start-of-day mark home for the parent's ``apply_delta()``.
- :mod:`repro.telemetry.tracing` — span tree over stages, campaign
  days, delivery waves and shard children; Chrome-trace + text export.
- :mod:`repro.telemetry.export` — Prometheus text exposition, JSON and
  trace writers behind ``repro run --telemetry`` / ``repro metrics``.
"""

from repro.telemetry.export import (
    chrome_trace,
    histogram_quantiles,
    metrics_json,
    prometheus_text,
    render_metrics,
    render_span_tree,
    write_telemetry,
)
from repro.telemetry.registry import TELEMETRY, TelemetryRegistry
from repro.telemetry.tracing import TRACER, Span, Tracer

__all__ = [
    "TELEMETRY",
    "TRACER",
    "Span",
    "TelemetryRegistry",
    "Tracer",
    "chrome_trace",
    "histogram_quantiles",
    "metrics_json",
    "prometheus_text",
    "render_metrics",
    "render_span_tree",
    "write_telemetry",
]
