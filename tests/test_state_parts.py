"""The state-transfer protocols: every stateful subsystem is a part of
``CountermeasureCampaign.state_parts()`` (or owned by one), and each
part moves one way, whole through ``export_state()``/
``install_state()`` or since a mark through ``mark()``/
``export_delta()``/``apply_delta()``, never both.

Day checkpoints and shard deltas are both payloads of the registered
parts, so a class that grows a protocol but is missing from the
table would silently fall out of resume and shard merges.  A part that
is registered but drops an attribute is caught by the day-checkpoint
round trip: the pickled chain of checkpoints installed into a rebuilt
twin must match the source attribute by attribute, except the caches a
class lists in its ``_TRANSIENT`` tuple.  That each checkpoint carries
one day, not the campaign so far, is pinned separately.
"""

from __future__ import annotations

import contextlib
import copy
import importlib
import inspect
import pkgutil
import random
from collections import Counter, deque
from collections.abc import Mapping
from dataclasses import astuple

import repro
from repro.apps.catalog import AppCatalog
from repro.collusion.ecosystem import build_ecosystem
from repro.core.config import StudyConfig
from repro.core.world import World
from repro.countermeasures.campaign import (
    CampaignConfig,
    CountermeasureCampaign,
)
from repro.countermeasures.recovery import (
    CampaignRecovery,
    capture_checkpoint,
    install_checkpoint,
    mark_parts,
)
from repro.experiments.checkpoint import CheckpointStore
from repro.faults.plan import transient_plan
from repro.graphapi.ratelimit import PolicyEnforcer, SlidingWindowLimiter
from repro.sanitizer.trace import SANITIZER
from repro.shorturl.shortener import UrlShortener
from repro.sim.clock import DAY, SimClock
from repro.socialnet.activity import ActivityLog
from repro.socialnet.platform import SocialPlatform
from repro.telemetry.registry import TELEMETRY

NETWORKS = ("fb-autolikers.com", "autolike.vn")
SCALE = 0.002

#: The two transfer protocols: a part moves whole or since a mark.
WHOLE = ("export_state", "install_state")
MARKED = ("mark", "export_delta", "apply_delta")

#: Protocol classes that are not parts themselves: each moves with the
#: part that owns it.
OWNED_BY = {
    # One limiter per window; PolicyEnforcer.export_state() carries
    # all of them (and rebuilds them when a limit changes).
    SlidingWindowLimiter: PolicyEnforcer,
    # The platform's mark and delta carry its activity log's.
    ActivityLog: SocialPlatform,
}


def _protocol_classes():
    """Every class in ``repro`` that defines a protocol method, mapped
    to the protocols it defines any method of."""
    found = {}
    for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
        if module_info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        module = importlib.import_module(module_info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__:
                continue
            protocols = [protocol for protocol in (WHOLE, MARKED)
                         if any(name in vars(cls) for name in protocol)]
            if protocols:
                found[cls] = protocols
    return found


@contextlib.contextmanager
def _planes_on():
    """Telemetry and the sanitizer empty and on, then off and empty
    again."""
    TELEMETRY.reset()
    SANITIZER.reset()
    TELEMETRY.enable()
    SANITIZER.enable()
    try:
        yield
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
        SANITIZER.disable()
        SANITIZER.reset()


def _campaign():
    """A small two-network, 12-day campaign under a transient fault
    plan."""
    world = World(StudyConfig(scale=SCALE, seed=5,
                              fault_plan=transient_plan(0.01)))
    AppCatalog(world.apps, world.rng.stream("catalog"),
               tail_apps=0).build()
    ecosystem = build_ecosystem(world, build_membership=False,
                                network_limit=13)
    for domain in NETWORKS:
        network = ecosystem.network(domain)
        network.build_membership(network.profile.pool_size(SCALE))
    config = CampaignConfig.compressed(12, networks=NETWORKS,
                                       hublaa_outage=None)
    return CountermeasureCampaign(world, ecosystem, config)


def test_every_state_class_is_a_registered_part():
    with _planes_on():
        parts = _campaign().state_parts()
    registered = {type(part) for part in parts.values()}
    for required in ("faults", "telemetry", "sanitizer"):
        assert required in parts
    classes = _protocol_classes()
    assert len(classes) >= 15
    for cls, protocols in sorted(classes.items(),
                                 key=lambda item: item[0].__qualname__):
        name = f"{cls.__module__}.{cls.__qualname__}"
        assert len(protocols) == 1, (
            f"{name} moves both whole and since a mark")
        missing = [method for method in protocols[0]
                   if method not in vars(cls)]
        assert not missing, f"{name} lacks {', '.join(missing)}"
        owner = OWNED_BY.get(cls)
        if owner is not None:
            assert owner in registered, name
            continue
        assert cls in registered, (
            f"{name} defines {'/'.join(protocols[0])} but is not a "
            f"state_parts() entry")


def _attrs(obj):
    """An object's instance attributes, ``__slots__`` included."""
    attrs = dict(getattr(obj, "__dict__", {}))
    for cls in type(obj).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            if not slot.startswith("__") and hasattr(obj, slot):
                attrs[slot] = getattr(obj, slot)
    return attrs


class _Differ:
    """Names every path at which two object graphs differ.

    Mappings compare as mappings (key sets, then values), sequences
    item by item, generators by ``getstate()``, bound methods by name
    and receiver, and any other object by its attributes, minus the
    names its class lists in ``_TRANSIENT``.  A reference to a part or
    a world subsystem compares by which one it is (``names`` maps
    ``id`` to a name on each side), so a part's back-references are
    not walked twice.
    """

    def __init__(self, source_names, twin_names):
        self.names = (source_names, twin_names)
        self.seen = set()
        self.paths = []

    def objects(self, source, twin, path):
        transient = getattr(type(source), "_TRANSIENT", ())
        attrs = _attrs(source), _attrs(twin)
        for name in transient:
            if name not in attrs[0]:
                self.paths.append(f"{path}._TRANSIENT names missing "
                                  f"attribute {name!r}")
        for name in sorted(set(attrs[0]) | set(attrs[1])):
            if name in transient:
                continue
            if name not in attrs[0] or name not in attrs[1]:
                self.paths.append(f"{path}.{name}")
            else:
                self.values(attrs[0][name], attrs[1][name],
                            f"{path}.{name}")

    def values(self, source, twin, path):
        named = (self.names[0].get(id(source)),
                 self.names[1].get(id(twin)))
        if named != (None, None):
            if named[0] != named[1]:
                self.paths.append(path)
            return
        if source is twin:
            return
        if type(source) is not type(twin):
            self.paths.append(path)
            return
        if isinstance(source, random.Random):
            if source.getstate() != twin.getstate():
                self.paths.append(path)
        elif isinstance(source, Mapping):
            if set(source) != set(twin):
                self.paths.append(path)
                return
            for key in source:
                self.values(source[key], twin[key], f"{path}[{key!r}]")
        elif isinstance(source, (list, tuple, deque)):
            if len(source) != len(twin):
                self.paths.append(path)
                return
            for index, (left, right) in enumerate(zip(source, twin)):
                self.values(left, right, f"{path}[{index}]")
        elif hasattr(source, "__self__") and callable(source):
            # A bound method: the same method of an equal receiver.
            if source.__name__ != twin.__name__:
                self.paths.append(path)
            else:
                self.values(source.__self__, twin.__self__, path)
        elif _attrs(source) and not isinstance(source, type):
            if (id(source), id(twin)) in self.seen:
                return
            self.seen.add((id(source), id(twin)))
            self.objects(source, twin, path)
        elif source != twin:
            self.paths.append(path)


def _subsystems(campaign, planes):
    """``id`` -> name of every part and world subsystem; ``planes``
    are named as well as the process-global planes they stand for."""
    world = campaign.world
    named = [("world", world), ("ecosystem", campaign.ecosystem)]
    named += [(f"world.{name}", value)
              for name, value in vars(world).items()]
    named += [*campaign.state_parts().items(), *planes.items()]
    return {id(value): name for name, value in named
            if value is not None}


def _run_days(campaign, days):
    """Run campaign ``days``; returns the log digest and both planes'
    contents."""
    for day in days:
        campaign._run_day(day)
    return (campaign.world.api.log.digest(), TELEMETRY.snapshot(),
            SANITIZER.manifest())


def test_day_checkpoint_round_trips_into_a_rebuilt_twin(tmp_path):
    # A resume installs the pickled chain of day checkpoints into a
    # rebuilt world; every attribute a campaign day mutates must come
    # back, except the caches each class lists in _TRANSIENT.
    planes = {"telemetry": TELEMETRY, "sanitizer": SANITIZER}
    with _planes_on():
        empty = {name: plane.mark() for name, plane in planes.items()}
        source = _campaign()
        marks = mark_parts(source)
        base_rows = len(source.world.api.log)
        store = CheckpointStore(str(tmp_path))
        for day in range(1, 10):
            _run_days(source, (day,))
            records = len(source.world.api.log) - base_rows
            store.save(f"day-{day:05d}",
                       capture_checkpoint(source, day, marks, records))
            marks = mark_parts(source)
        rows = source.world.api.log.export_rows(base_rows)
        chain = [store.load(f"day-{day:05d}") for day in range(1, 10)]
        # The planes are process-global: ship the source's contents out
        # through their own delta protocol while the twin is built under
        # fresh ones, and keep a copy to compare the twin's planes with.
        shipped = {name: plane.export_delta(empty[name])
                   for name, plane in planes.items()}
        saved = {name: copy.deepcopy(plane)
                 for name, plane in planes.items()}
        for plane in planes.values():
            plane.reset()
        twin = _campaign()
        twin.world.api.log.append_exported(rows)
        for checkpoint in chain:
            install_checkpoint(twin, checkpoint)

        differ = _Differ(_subsystems(source, saved),
                         _subsystems(twin, planes))
        for name in ("clock", "platform"):
            differ.objects(getattr(source.world, name),
                           getattr(twin.world, name), name)
        source_parts = {**source.state_parts(), **saved}
        twin_parts = twin.state_parts()
        assert list(twin_parts) == list(source_parts)
        for name, part in twin_parts.items():
            differ.objects(source_parts[name], part, name)
        assert not differ.paths, differ.paths

        # Both twins run the last three days the same way; the source
        # runs on with its own contents put back into the planes.
        twin_end = _run_days(twin, range(10, 13))
        for name, plane in planes.items():
            plane.reset()
            plane.apply_delta(shipped[name])
        assert _run_days(source, range(10, 13)) == twin_end


def _platform_objects(delta):
    """A key for every platform object a ``SocialPlatform`` delta
    ships: accounts, posts, pages, likes, comments, activity records."""
    keys = [("account", account.account_id)
            for account in delta["new_accounts"]]
    likes, comments = [], []
    for post in delta["new_posts"]:
        keys.append(("post", post.post_id))
        likes += post.likes
        comments += post.comments
    for page in delta["new_pages"]:
        keys.append(("page", page.page_id))
        likes += page.likes
    for _post_id, post_likes, post_comments in delta["touched_posts"]:
        likes += post_likes
        comments += post_comments
    for _page_id, page_likes in delta["touched_pages"]:
        likes += page_likes
    keys += [("like", like.actor_id, like.target_id) for like in likes]
    keys += [("comment", comment.comment_id) for comment in comments]
    keys += [("activity", astuple(record)) for record in delta["activity"]]
    return keys


def test_each_checkpoint_ships_one_day_of_growth(tmp_path):
    # Link k of the chain carries what day k added and nothing older:
    # every platform object lands in exactly one checkpoint, and the
    # token part names exactly the tokens day k issued or flipped.
    campaign = _campaign()
    world = campaign.world
    start = world.platform.mark()
    recovery = CampaignRecovery(str(tmp_path / "journal"))
    flags = {}
    begin_day = recovery.begin_day

    def note_flags_then_begin(campaign, day):
        flags[day] = {t.token: t.invalidated
                      for t in world.tokens._tokens.values()}
        begin_day(campaign, day)

    recovery.begin_day = note_flags_then_begin
    campaign.run(recovery=recovery)
    flags[13] = {t.token: t.invalidated
                 for t in world.tokens._tokens.values()}

    store = CheckpointStore(str(tmp_path / "journal" / "checkpoints"))
    chain = [store.load(f"day-{day:05d}") for day in range(1, 13)]
    shipped = Counter()
    for checkpoint in chain:
        shipped.update(_platform_objects(checkpoint.parts["platform"]))
    grown = Counter(_platform_objects(world.platform.export_delta(start)))
    assert shipped == grown
    # Campaign days request likes only (comments are milking traffic).
    kinds = Counter(key[0] for key in grown)
    assert sorted(kinds) == ["account", "activity", "like", "page", "post"]

    issued = flipped = 0
    for day, checkpoint in enumerate(chain, start=1):
        before, after = flags[day], flags[day + 1]
        changed = sorted(token for token, flag in after.items()
                         if before.get(token) != flag)
        delta = checkpoint.parts["tokens"]
        named = sorted([row[0] for row in delta["issued"]]
                       + [row[0] for row in delta["flipped"]])
        assert named == changed, day
        issued += len(delta["issued"])
        flipped += len(delta["flipped"])
    assert issued and flipped


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
