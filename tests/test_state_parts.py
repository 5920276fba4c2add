"""The state-transfer protocol: every stateful subsystem is a part of
``CountermeasureCampaign.state_parts()``, and parts round-trip through
``export_state()``/``install_state()``.

Day checkpoints and shard deltas are both payloads of the registered
parts, so a class that grows the protocol but is missing from the
table would silently fall out of resume and shard merges.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import repro
from repro.apps.catalog import AppCatalog
from repro.collusion.ecosystem import build_ecosystem
from repro.core.config import StudyConfig
from repro.core.world import World
from repro.countermeasures.campaign import (
    CampaignConfig,
    CountermeasureCampaign,
)
from repro.faults.plan import transient_plan
from repro.graphapi.ratelimit import PolicyEnforcer, SlidingWindowLimiter
from repro.sanitizer.trace import SANITIZER
from repro.shorturl.shortener import UrlShortener
from repro.sim.clock import DAY, SimClock
from repro.telemetry.registry import TELEMETRY

#: Protocol classes that are not parts themselves: each is exported
#: and installed by the part that owns it.
OWNED_BY = {
    # One limiter per window; PolicyEnforcer.export_state() carries
    # all of them (and rebuilds them when a limit changes).
    SlidingWindowLimiter: PolicyEnforcer,
}


def _protocol_classes():
    """Every class in ``repro`` that defines both protocol methods."""
    found = set()
    for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
        if module_info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        module = importlib.import_module(module_info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (cls.__module__ == module.__name__
                    and "export_state" in vars(cls)
                    and "install_state" in vars(cls)):
                found.add(cls)
    return found


def _campaign_parts():
    """``state_parts()`` of a small campaign with every plane on."""
    TELEMETRY.enable()
    SANITIZER.enable()
    try:
        world = World(StudyConfig(scale=0.002, seed=5,
                                  fault_plan=transient_plan(0.01)))
        AppCatalog(world.apps, world.rng.stream("catalog"),
                   tail_apps=0).build()
        ecosystem = build_ecosystem(world, build_membership=False,
                                    network_limit=13)
        config = CampaignConfig.compressed(
            12, networks=("fb-autolikers.com", "autolike.vn"),
            hublaa_outage=None)
        return CountermeasureCampaign(world, ecosystem, config).state_parts()
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
        SANITIZER.disable()
        SANITIZER.reset()


def test_every_state_class_is_a_registered_part():
    parts = _campaign_parts()
    registered = {type(part) for part in parts.values()}
    for required in ("faults", "telemetry", "sanitizer"):
        assert required in parts
    classes = _protocol_classes()
    assert len(classes) >= 10
    for cls in sorted(classes, key=lambda c: c.__qualname__):
        owner = OWNED_BY.get(cls)
        if owner is not None:
            assert owner in registered, cls.__qualname__
            continue
        assert cls in registered, (
            f"{cls.__module__}.{cls.__qualname__} defines export_state/"
            f"install_state but is not a state_parts() entry")


def _shortener():
    """A shortener "built to the mark": two links with click history."""
    shortener = UrlShortener(SimClock())
    first = shortener.shorten("https://example.com/dialog")
    shortener.shorten("https://example.com/dialog")
    shortener.record_clicks(first.slug, 40, referrer="facebook.com",
                            country="IN", timestamp=0)
    return shortener


def test_shortener_round_trips_slugs_created_after_the_mark():
    source = _shortener()
    twin = _shortener()
    late = source.shorten("https://example.com/late")
    source.click(late.slug, referrer="m.facebook.com", country="EG",
                 timestamp=3 * DAY)
    old_slug = source.slugs_for("https://example.com/dialog")[0]
    source.click(old_slug, country="IN", timestamp=DAY)

    twin.install_state(source.export_state())
    assert twin.resolve(late.slug) == "https://example.com/late"
    assert twin.get(late.slug).clicks_by_country == {"EG": 1}
    assert twin.get(old_slug).click_count == 41
    assert (twin.slugs_for("https://example.com/late")
            == source.slugs_for("https://example.com/late"))
    # The installed links are copies, not aliases of the source's.
    source.click(late.slug, timestamp=4 * DAY)
    assert twin.get(late.slug).click_count == 1
    # The slug counter came along: both mint the same next slug.
    assert (twin.shorten("https://example.com/next").slug
            == source.shorten("https://example.com/next").slug)


def test_limiter_install_replaces_exactly_the_exported_keys():
    source = SlidingWindowLimiter(limit=2, window_seconds=DAY)
    for key in ("a", "a", "b"):
        source.hit(key, 100)
    assert not source.try_acquire("a", 100)      # "a" is now memoized
    source.usage("empty", 100)                   # an empty deque
    source.install_state({"memo": (None, 500)})  # a memo-only key

    # A keyed export carries only the named keys that hold state, and
    # installing it leaves every other key of the target alone.
    keyed = source.export_state(["a", "b", "unknown"])
    assert sorted(keyed) == ["a", "b"]
    target = SlidingWindowLimiter(limit=2, window_seconds=DAY)
    target.hit("b", 50)
    target.hit("c", 60)
    target.install_state(keyed)
    assert target.export_state() == {
        "b": ((100,), None),
        "c": ((60,), None),
        "a": ((100, 100), 100 + DAY),
    }

    # A full export lists empty-deque and memo-only keys too, and
    # round-trips them.
    full = source.export_state()
    assert full["empty"] == ((), None)
    assert full["memo"] == (None, 500)
    clone = SlidingWindowLimiter(limit=2, window_seconds=DAY)
    clone.install_state(full)
    assert clone.export_state() == full
    assert clone.saturated("memo", 400)
    assert not clone.try_acquire("a", 200)
