"""Deterministic metrics registry.

Metrics are keyed by ``(name, sorted-label-tuple)`` and every recorded
value is an integer, so aggregation is exact: merging per-shard deltas
in any order yields byte-for-byte the numbers a serial run records
(floating-point sums would depend on addition order).  Durations are
recorded as integer microseconds for the same reason.

The registry is invisible to the simulation.  Recording never reads
the wall clock, never touches an RNG stream and never mutates platform
state; the only wall-clock data in the subsystem lives in the
:class:`repro.perf.instrumentation.StageTimer` stage view (``stages``),
which is excluded from snapshots, fingerprints and deltas.

Label hygiene: label values must be bounded (enum-like) strings.  Raw
access tokens are rejected at the door — any value carrying the token
mint prefix is replaced by its :func:`repro.oauth.redact.redact_token`
digest (the static complement is reprolint RL501, which requires label
expressions to be literals, names or ``redact_token(...)`` calls).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.oauth.redact import redact_token
from repro.perf.instrumentation import StageTimer

#: A label set, canonicalised: ``(("key", "value"), ...)`` sorted by key.
LabelKey = Tuple[Tuple[str, str], ...]
#: A metric series: metric name plus its canonical label set.
MetricKey = Tuple[str, LabelKey]

#: Token mint prefix (see ``repro.oauth.tokens._mint_token_string``);
#: values carrying it are redacted before they can become a label.
_TOKEN_PREFIX = "EAAB"

#: Upper bucket bounds for registered histogram families.  Bounds are
#: part of the metric contract: both sides of a shard merge and both
#: sides of a serial-vs-sharded comparison bucket identically.
DEFAULT_HISTOGRAMS: Dict[str, Tuple[int, ...]] = {
    "wave_size": (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096),
    "wave_limiter_denials": (0, 1, 2, 4, 8, 16, 32, 64, 128, 256),
}

#: Fallback exponential ladder for histograms observed before an
#: explicit ``register_histogram`` call.
_FALLBACK_BOUNDS: Tuple[int, ...] = tuple(2 ** i for i in range(17))


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    items: List[Tuple[str, str]] = []
    for key in sorted(labels):
        value = labels[key]
        text = value if isinstance(value, str) else str(value)
        if text.startswith(_TOKEN_PREFIX):
            text = redact_token(text)
        items.append((key, text))
    return tuple(items)


# ``enabled`` and the ``stages`` wall-clock view are process wiring
# (set by the CLI / bench harness), deliberately not simulation state:
# a resumed run decides its own enablement and re-times its own stages.
class TelemetryRegistry:
    """Counters, gauges and fixed-bucket histograms, deterministically.

    All mutation goes through :meth:`count` / :meth:`gauge_set` /
    :meth:`observe`, each a no-op while ``enabled`` is ``False`` so an
    uninstrumented run pays one attribute load per seam.
    """

    def __init__(self) -> None:
        self.enabled = False
        #: Wall-clock stage view: the StageTimer that deeply nested
        #: code (e.g. the campaign's detection passes) records into.
        #: One source of truth: the bench harness and the exporters
        #: both read stage seconds from here, never from snapshots.
        self.stages = StageTimer()
        self._counters: Dict[MetricKey, int] = {}
        self._gauges: Dict[MetricKey, int] = {}
        self._hist_bounds: Dict[str, Tuple[int, ...]] = dict(
            DEFAULT_HISTOGRAMS)
        self._hist: Dict[MetricKey, List[int]] = {}
        self._hist_sum: Dict[MetricKey, int] = {}
        # Transient pipeline-stage tracker, fed by StageTimer's
        # listener hook; lets deep instrumentation points label
        # observations with the stage they ran under.
        self._stage_stack: List[str] = []

    def _on_stage(self, name: str, entering: bool) -> None:
        if entering:
            self._stage_stack.append(name)
        elif self._stage_stack and self._stage_stack[-1] == name:
            self._stage_stack.pop()

    def current_stage(self) -> str:
        return self._stage_stack[-1] if self._stage_stack else ""

    # -- recording -----------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def count(self, name: str, value: int = 1, **labels: object) -> None:
        """Add ``value`` to the counter series ``name{labels}``."""
        if not self.enabled:
            return
        key = (name, _label_key(labels))
        self._counters[key] = self._counters.get(key, 0) + int(value)

    def count_many(self, counts: Mapping[str, int], prefix: str = "",
                   **labels: object) -> None:
        """Fold a whole counter dict (e.g. retry tallies) into series."""
        if not self.enabled:
            return
        for name in sorted(counts):
            self.count(prefix + name, counts[name], **labels)

    def gauge_set(self, name: str, value: int, **labels: object) -> None:
        """Set the gauge series ``name{labels}`` (last write wins)."""
        if not self.enabled:
            return
        self._gauges[(name, _label_key(labels))] = int(value)

    def register_histogram(self, name: str,
                           bounds: Tuple[int, ...]) -> None:
        """Pin upper bucket bounds for ``name`` (sorted, exclusive of
        the implicit +Inf overflow bucket)."""
        self._hist_bounds[name] = tuple(bounds)

    def observe(self, name: str, value: int, **labels: object) -> None:
        """Record ``value`` into the histogram series ``name{labels}``."""
        if not self.enabled:
            return
        bounds = self._hist_bounds.get(name)
        if bounds is None:
            bounds = _FALLBACK_BOUNDS
            self._hist_bounds[name] = bounds
        key = (name, _label_key(labels))
        buckets = self._hist.get(key)
        if buckets is None:
            buckets = [0] * (len(bounds) + 1)
            self._hist[key] = buckets
        buckets[bisect_left(bounds, value)] += 1
        self._hist_sum[key] = self._hist_sum.get(key, 0) + int(value)

    def reset(self) -> None:
        """Drop all recorded series (enablement is left as-is)."""
        self._counters.clear()
        self._gauges.clear()
        self._hist.clear()
        self._hist_sum.clear()
        self._hist_bounds = dict(DEFAULT_HISTOGRAMS)

    # -- reading -------------------------------------------------------
    def counter_value(self, name: str, **labels: object) -> int:
        return self._counters.get((name, _label_key(labels)), 0)

    def counter_total(self, name: str) -> int:
        """Sum of a counter family across all label sets."""
        return sum(v for (n, _), v in self._counters.items() if n == name)

    def counter_families(self) -> Iterator[str]:
        yield from sorted({name for name, _ in self._counters})

    def histogram(self, name: str, **labels: object
                  ) -> Optional[Tuple[Tuple[int, ...], List[int], int]]:
        """(bounds, bucket counts, sum) for one series, or None."""
        key = (name, _label_key(labels))
        buckets = self._hist.get(key)
        if buckets is None:
            return None
        return (self._hist_bounds[name], list(buckets),
                self._hist_sum.get(key, 0))

    def snapshot(self) -> Dict[str, object]:
        """JSON-shaped, deterministically ordered view of every series.

        Wall-clock stage timings are deliberately absent — they vary
        run to run and live only in the exporters' side channel.
        """
        counters = [
            [name, [list(pair) for pair in labels], value]
            for (name, labels), value in sorted(self._counters.items())
        ]
        gauges = [
            [name, [list(pair) for pair in labels], value]
            for (name, labels), value in sorted(self._gauges.items())
        ]
        histograms = [
            [name, [list(pair) for pair in labels],
             list(self._hist_bounds[name]), list(buckets),
             self._hist_sum.get((name, labels), 0)]
            for (name, labels), buckets in sorted(self._hist.items())
        ]
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def fingerprint(self, exclude_prefixes: Tuple[str, ...] = ()) -> str:
        """Stable digest of all series outside ``exclude_prefixes``.

        Cross-mode identity checks (serial vs sharded) exclude the
        ``shard_`` family: those series describe the execution strategy
        itself, not the simulated workload.
        """
        snap = self.snapshot()
        if exclude_prefixes:
            for section in ("counters", "gauges", "histograms"):
                snap[section] = [
                    row for row in snap[section]  # type: ignore[union-attr]
                    if not str(row[0]).startswith(exclude_prefixes)]
        digest = hashlib.blake2b(repr(snap).encode("utf-8"),
                                 digest_size=8)
        return digest.hexdigest()

    # -- state transfer (checkpoints, shard deltas) --------------------
    def mark(self) -> Dict[str, object]:
        """A copy of the recorded series (see :meth:`export_delta`)."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "hist": {key: list(buckets)
                     for key, buckets in self._hist.items()},
            "hist_sum": dict(self._hist_sum),
        }

    def export_delta(self, mark: Mapping[str, object]) -> Dict[str, object]:
        """Increments since ``mark``.

        Counters, histogram buckets and sums ship as differences,
        gauges as last writes, and bucket bounds whole (a family may be
        first observed after ``mark``).  A series first recorded after
        ``mark`` ships even at zero: it exists in the registry all the
        same.
        """
        def increments(current, before):
            return {key: value - before.get(key, 0)
                    for key, value in current.items()
                    if key not in before or value != before[key]}

        mark_gauges: Mapping[MetricKey, int] = mark["gauges"]  # type: ignore[assignment]
        mark_hist: Mapping[MetricKey, List[int]] = mark["hist"]  # type: ignore[assignment]
        hist: Dict[MetricKey, List[int]] = {}
        for key, buckets in self._hist.items():
            before = mark_hist.get(key)
            diff = (list(buckets) if before is None
                    else [b - a for a, b in zip(before, buckets)])
            if any(diff):
                hist[key] = diff
        return {
            "counters": increments(self._counters, mark["counters"]),
            "gauges": {key: value for key, value in self._gauges.items()
                       if mark_gauges.get(key) != value},
            "hist_bounds": dict(self._hist_bounds),
            "hist": hist,
            "hist_sum": increments(self._hist_sum, mark["hist_sum"]),
        }

    def apply_delta(self, delta: Mapping[str, object]) -> None:
        """Fold an :meth:`export_delta` from another process in.

        Because every value is an integer, fold order cannot change
        the result.  Bypasses the ``enabled`` gate: the receiving
        process decides enablement, and a delta only exists because
        recording was on where it was exported.
        """
        for name, bounds in sorted(delta["hist_bounds"].items()):  # type: ignore[union-attr]
            self._hist_bounds.setdefault(name, tuple(bounds))
        for key, value in sorted(delta["counters"].items()):  # type: ignore[union-attr]
            self._counters[key] = self._counters.get(key, 0) + value
        for key, value in sorted(delta["gauges"].items()):  # type: ignore[union-attr]
            self._gauges[key] = value
        for key, diff in sorted(delta["hist"].items()):  # type: ignore[union-attr]
            buckets = self._hist.get(key)
            if buckets is None:
                self._hist[key] = list(diff)
            else:
                for i, inc in enumerate(diff):
                    buckets[i] += inc
        for key, value in sorted(delta["hist_sum"].items()):  # type: ignore[union-attr]
            self._hist_sum[key] = self._hist_sum.get(key, 0) + value


#: Process-global registry.  Forked shard workers inherit a memory
#: copy; their increments travel back through export_delta/apply_delta.
TELEMETRY = TelemetryRegistry()

StageTimer.listeners.append(TELEMETRY._on_stage)
