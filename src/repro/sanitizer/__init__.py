"""reprosan — determinism sanitizer with divergence bisection.

Public surface:

* :data:`SANITIZER` — the process-global shadow-trace recorder
  (enable with ``repro run --sanitize DIR``).
* :class:`InstrumentedStream` — the RNG draw hook handed out by
  ``RngFactory.stream`` while sanitizing.
* Shard transfer is the trace's capture mode
  (``SANITIZER.begin_capture()``/``capture_slice()``/``replay()``):
  a shard child ships its captured events in ``ShardDayDelta.trace``,
  sliced per day event, and the parent replays every slice in global
  ``(when, seq)`` order.
* :func:`diff_manifests` / :func:`load_manifest` — the
  ``repro san diff`` engine.
* :func:`write_sanitizer` — manifest export.
"""

from __future__ import annotations

import json
import os

from repro.sanitizer.diff import (
    DiffResult,
    Divergence,
    diff_manifests,
    load_manifest,
)
from repro.sanitizer.streams import InstrumentedStream, hot_draw_bindings
from repro.sanitizer.trace import SANITIZER, SanitizerTrace

__all__ = [
    "SANITIZER",
    "SanitizerTrace",
    "InstrumentedStream",
    "hot_draw_bindings",
    "DiffResult",
    "Divergence",
    "diff_manifests",
    "load_manifest",
    "write_sanitizer",
]


def write_sanitizer(directory: str,
                    trace: SanitizerTrace = SANITIZER) -> str:
    """Write the trace manifest to ``directory/sanitizer.json``."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "sanitizer.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace.manifest(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path
