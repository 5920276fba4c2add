"""Per-layer timing for the traced run, from the benchmark's own files.

:class:`LayerTracer` replaces the public functions named in
:data:`LAYERS` with timing wrappers, at the place callers look them up
(a class attribute, or a module global for module-level functions —
``campaign.py`` imports ``run_sharded_day`` by name, so that name is
wrapped in ``repro.countermeasures.campaign``).  Each wrapper records
calls, inclusive seconds and self seconds (inclusive minus the time of
wrapped calls made inside it), plus a few layer-specific counts.
:meth:`LayerTracer.restore` puts every original back.  No file under
``src/`` changes.

Shard children fork from the traced process and run their share of a
sharded day with the wrappers in place, but their tallies die with
them: a sharded day's work shows as ``sharding.component`` time in the
parent, not under the campaign layers.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, class or None for a module global, function names).
LAYERS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    # Build: world, app catalog and ecosystem membership.
    ("collusion.join", "repro.collusion.network", "CollusionNetwork",
     ("join",)),
    ("collusion.draw_member", "repro.collusion.network", "MemberDirectory",
     ("draw_member",)),
    ("oauth.authorize", "repro.oauth.server", "AuthorizationServer",
     ("authorize",)),
    ("oauth.token_issue", "repro.oauth.tokens", "TokenStore", ("issue",)),
    ("socialnet.register", "repro.socialnet.platform", "SocialPlatform",
     ("register_account",)),
    ("shorturl.click", "repro.shorturl.shortener", "UrlShortener",
     ("click",)),
    ("apps.catalog_build", "repro.apps.catalog", "AppCatalog", ("build",)),
    # Honeypot milking (§4).
    ("honeypot.milking", "repro.honeypot.milker", "MilkingCampaign",
     ("run",)),
    ("honeypot.crawl", "repro.honeypot.crawler", "TimelineCrawler",
     ("crawl_incoming",)),
    # Collusion-network traffic.
    ("collusion.serve_background", "repro.collusion.network",
     "CollusionNetwork", ("serve_background_requests",)),
    ("collusion.like_request", "repro.collusion.network",
     "CollusionNetwork", ("submit_like_request",)),
    ("collusion.outgoing", "repro.collusion.network", "CollusionNetwork",
     ("use_member_token_for_background",)),
    ("collusion.daily_tick", "repro.collusion.network", "CollusionNetwork",
     ("daily_tick",)),
    # Graph API write path.
    ("graphapi.wave", "repro.graphapi.api", "GraphApi", ("delivery_wave",)),
    ("graphapi.charge", "repro.graphapi.api", "DeliveryWave", ("charge",)),
    ("graphapi.like", "repro.graphapi.api", "DeliveryWave", ("like",)),
    ("graphapi.wave_finish", "repro.graphapi.api", "DeliveryWave",
     ("finish",)),
    ("graphapi.log_append", "repro.graphapi.log", "RequestLog",
     ("extend_like_rows", "append_row")),
    ("ratelimit.admit", "repro.graphapi.ratelimit", "LikeWaveAdmitter",
     ("admit",)),
    ("ratelimit.flush", "repro.graphapi.ratelimit", "LikeWaveAdmitter",
     ("flush",)),
    ("sim.scheduler", "repro.sim.events", "EventScheduler", ("run_until",)),
    # Countermeasures and detection.
    ("detection.synchrotrap", "repro.detection.synchrotrap", "SynchroTrap",
     ("detect",)),
    ("countermeasures.invalidation", "repro.countermeasures.invalidation",
     "TokenInvalidator",
     ("invalidate_fraction_of_observed", "invalidate_all_observed",
      "invalidate_new_observations", "invalidate_specific")),
    ("countermeasures.clustering", "repro.countermeasures.clustering",
     "ClusteringCountermeasure", ("run",)),
    ("experiments.run", "repro.experiments.runner", None,
     ("run_experiments",)),
    # Durability, sharding.
    ("recovery.capture", "repro.countermeasures.recovery", None,
     ("capture_checkpoint",)),
    ("recovery.checkpoint_save", "repro.experiments.checkpoint",
     "CheckpointStore", ("save",)),
    ("journal.append", "repro.journal.wal", "EventJournal", ("append_row",)),
    ("journal.seal", "repro.journal.wal", "EventJournal", ("seal_day",)),
    ("sharding.day", "repro.countermeasures.campaign", None,
     ("run_sharded_day",)),
    ("sharding.component", "repro.countermeasures.sharding",
     "ShardSupervisor", ("run_component",)),
)

#: Replenishment joins: ``collusion.join`` calls made inside
#: ``collusion.daily_tick`` are tallied here instead.
CAMPAIGN_JOINS = "collusion.campaign_joins"

#: Layers whose per-call p50/p99 is reported.  Each makes well over
#: 1000 calls on every workload.
PERCENTILE_LAYERS = ("collusion.join", "oauth.authorize", "graphapi.like",
                     "ratelimit.admit")

#: Verdicts of ``DeliveryWave.charge``/``like`` reported by name; the
#: rest are summed into ``refused_other``.  ``None`` is admission.
VERDICTS = ("token_limit", "ip_limit")

#: Extra per-layer counts: metric name -> (unit, better).
EXTRA_METRICS: Dict[str, Tuple[str, str]] = {
    "honeypot.milking.rows": ("count", "higher"),
    "graphapi.log_append.rows": ("count", "higher"),
    "detection.synchrotrap.pairs_scored": ("count", "lower"),
    "countermeasures.invalidation.tokens": ("count", "higher"),
    "recovery.checkpoint_save.bytes": ("bytes", "lower"),
    "journal.bytes": ("bytes", "lower"),
    "sharding.quarantines": ("count", "lower"),
    "sanitizer.events": ("count", "lower"),
    "telemetry.spans": ("count", "lower"),
}


def layer_names() -> List[str]:
    names = [layer for layer, _module, _owner, _attrs in LAYERS]
    names.insert(names.index("collusion.join") + 1, CAMPAIGN_JOINS)
    return names


def metric_catalog() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric the traced run emits: name -> (unit,
    better).  Layer time is a share of the traced study's wall time, so
    a layer a workload never reaches reads 0 % rather than a time."""
    catalog: Dict[str, Tuple[str, str]] = {}
    for layer in layer_names():
        catalog[f"{layer}.calls"] = ("count", "lower")
        catalog[f"{layer}.share"] = ("%", "lower")
        catalog[f"{layer}.self_share"] = ("%", "lower")
    for layer in PERCENTILE_LAYERS:
        catalog[f"{layer}.p50_us"] = ("us", "lower")
        catalog[f"{layer}.p99_us"] = ("us", "lower")
    for layer in ("graphapi.charge", "graphapi.like"):
        catalog[f"{layer}.admitted_ratio"] = ("fraction", "higher")
        for verdict in VERDICTS + ("other",):
            catalog[f"{layer}.refused_{verdict}"] = ("count", "lower")
    catalog.update(EXTRA_METRICS)
    return catalog


class _Tally:
    __slots__ = ("calls", "seconds", "self_seconds", "samples", "counts")

    def __init__(self, sampled: bool) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.samples = array("d") if sampled else None
        self.counts: Dict[str, int] = {}

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


def _percentile(samples, fraction: float) -> float:
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


class LayerTracer:
    """Installs, tallies and removes the per-layer wrappers."""

    def __init__(self) -> None:
        self.tallies: Dict[str, _Tally] = {
            name: _Tally(name in PERCENTILE_LAYERS)
            for name in layer_names()}
        self._stack: List[float] = []
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self._tick_depth = 0
        #: Wrapped names that no longer exist; their layers read 0 calls
        #: instead of failing the traced study.
        self.missing: List[str] = []

    # -- install / restore ---------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("layer wrappers already installed")
        for layer, module_name, owner_name, attrs in LAYERS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            owner = (module if owner_name is None
                     else getattr(module, owner_name, None))
            for attr in attrs:
                original = (vars(owner).get(attr) if owner is not None
                            else None)
                if original is None:
                    self.missing.append(".".join(
                        part for part in (module_name, owner_name, attr)
                        if part))
                    continue
                wrapper = self._wrap(original, layer)
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original, wrapper))

    def restore(self) -> None:
        """Put every original back; raises if one did not stick."""
        while self._patches:
            owner, attr, original, wrapper = self._patches.pop()
            if vars(owner)[attr] is not wrapper:
                raise RuntimeError(f"{owner.__name__}.{attr} was re-patched "
                                   "while traced")
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner.__name__}."
                                   f"{attr}")

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- wrappers ------------------------------------------------------
    def _wrap(self, original: Callable, layer: str) -> Callable:
        stack = self._stack
        tally = self.tallies[layer]
        pre, post = self._hooks(layer)
        select: Callable[[], _Tally] = lambda: tally
        if layer == "collusion.join":
            campaign_joins = self.tallies[CAMPAIGN_JOINS]
            select = lambda: campaign_joins if self._tick_depth else tally
        is_tick = layer == "collusion.daily_tick"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            target = select()
            state = pre(args) if pre is not None else None
            if is_tick:
                self._tick_depth += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                if is_tick:
                    self._tick_depth -= 1
                target.calls += 1
                target.seconds += elapsed
                target.self_seconds += elapsed - inner
                if target.samples is not None:
                    target.samples.append(elapsed)
            if post is not None:
                post(target, args, result, state)
            return result

        return wrapper

    @staticmethod
    def _hooks(layer: str):
        """(pre, post) callbacks for a layer's extra counts."""
        if layer in ("graphapi.charge", "graphapi.like"):
            def verdict(tally, args, result, state):
                if result is None:
                    tally.add("admitted", 1)
                else:
                    key = result if result in VERDICTS else "other"
                    tally.add(f"refused_{key}", 1)
            return None, verdict
        if layer == "graphapi.log_append":
            def rows(tally, args, result, before):
                tally.add("rows", len(args[0]) - before)
            return (lambda args: len(args[0])), rows
        if layer == "honeypot.milking":
            def milked(tally, args, result, before):
                tally.add("rows", len(args[0].world.api.log) - before)
            return (lambda args: len(args[0].world.api.log)), milked
        if layer == "detection.synchrotrap":
            def pairs(tally, args, result, state):
                tally.add("pairs_scored", result.pairs_scored)
            return None, pairs
        if layer == "countermeasures.invalidation":
            def tokens(tally, args, result, state):
                tally.add("tokens", int(result))
            return None, tokens
        return None, None

    # -- results -------------------------------------------------------
    def metrics(self, study_seconds: float,
                extras: Dict[str, int]) -> Dict[str, float]:
        """Every :func:`metric_catalog` value (units live there).

        ``extras`` supplies the counts only the study can read after the
        run (bytes on disk, quarantines, sanitizer events, spans)."""
        out: Dict[str, float] = {}
        for layer, tally in self.tallies.items():
            out[f"{layer}.calls"] = tally.calls
            out[f"{layer}.share"] = 100.0 * tally.seconds / study_seconds
            out[f"{layer}.self_share"] = (100.0 * tally.self_seconds
                                          / study_seconds)
        for layer in PERCENTILE_LAYERS:
            samples = self.tallies[layer].samples
            out[f"{layer}.p50_us"] = 1e6 * _percentile(samples, 0.50)
            out[f"{layer}.p99_us"] = 1e6 * _percentile(samples, 0.99)
        for layer in ("graphapi.charge", "graphapi.like"):
            tally = self.tallies[layer]
            admitted = tally.counts.get("admitted", 0)
            out[f"{layer}.admitted_ratio"] = (admitted / tally.calls
                                              if tally.calls else 0.0)
            for verdict in VERDICTS + ("other",):
                out[f"{layer}.refused_{verdict}"] = tally.counts.get(
                    f"refused_{verdict}", 0)
        for name in EXTRA_METRICS:
            layer, _, key = name.rpartition(".")
            if name in extras:
                out[name] = extras[name]
            else:
                out[name] = self.tallies[layer].counts.get(key, 0)
        return out
