"""What the records a study keeps per token, account and sighting hold.

A paper-scale study keeps about a million of each, so each record pays
only for what it holds and each fact is stored once: a rate-limit
window is a plain list, not a deque, whose first events are an
exact-size list; ``AccessToken``, ``Account`` and ``Observation`` are
slotted; accounts without friends share one empty ``friend_ids``; a
ledger sighting keeps its networks as a tuple; a like is its activity
record; the token store indexes by app, then by user; and the ledger
lists a day's sighted accounts instead of keeping a set per day.

The references here are the structures as they were.  A window was a
deque per key, its expired head dropped by a ``popleft`` loop, in the
limiter's eviction and in the wave admitter's first touch of a key, and
every event was appended.  Random sequences of limiter calls, state
transfers and delivery-wave rounds (``admit``, ``DeliveryWave.charge``
and the flush at ``finish``), with timestamps that repeat and go
backwards, must give the same verdicts and leave the same windows and
saturation memos on both.  The token store was indexed by ``(user,
app)`` tuples, and the ledger kept a set per day; random histories
must read the same on both.  A like is checked to be one object, held
by its post or page and by the activity log, after a live campaign,
after a checkpoint chain installs into a rebuilt twin and after a
sharded day's merge.
"""

from __future__ import annotations

import copy
import pickle
import sys
from collections import deque
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.catalog import AppCatalog
from repro.collusion.ecosystem import build_ecosystem
from repro.core.config import StudyConfig
from repro.core.world import World
from repro.countermeasures.campaign import (
    CampaignConfig,
    CountermeasureCampaign,
)
from repro.countermeasures.recovery import (
    capture_checkpoint,
    install_checkpoint,
    mark_parts,
)
from repro.experiments.checkpoint import CheckpointStore
from repro.graphapi.ratelimit import (
    LikeWaveAdmitter,
    PolicyEnforcer,
    RateLimitPolicy,
    SlidingWindowLimiter,
)
from repro.honeypot.ledger import MilkedTokenLedger
from repro.oauth.apps import AppSecuritySettings
from repro.oauth.scopes import Permission, PermissionScope
from repro.oauth.server import AuthorizationRequest
from repro.oauth.tokens import AccessToken, TokenLifetime, TokenStore
from repro.sim.clock import DAY, HOUR, SimClock

# ----------------------------------------------------------------------
# The reference: deque windows, evicted by popleft.
# ----------------------------------------------------------------------


class DequeLimiter(SlidingWindowLimiter):
    """The limiter whose windows were deques."""

    def _evict(self, key, now):
        events = self._events.get(key)
        if events is None:
            events = self._events[key] = deque()
            return events
        if now != self._evict_now:
            self._evict_now = now
            self._evicted.clear()
        elif key in self._evicted:
            return events
        horizon = now - self.window_seconds
        while events and events[0] <= horizon:
            events.popleft()
        self._evicted.add(key)
        return events

    def install_state(self, windows):
        super().install_state(windows)
        for key, (events, _until) in windows.items():
            if events is not None:
                self._events[key] = deque(events)

    def hit(self, key, now):
        self._evict(key, now).append(now)

    def try_acquire(self, key, now):
        if self.saturated(key, now):
            return False
        events = self._evict(key, now)
        if len(events) >= self.limit:
            self.mark_saturated(key, events)
            return False
        events.append(now)
        return True


class DequeEnforcer(PolicyEnforcer):
    """The enforcer that appended each like to its deque windows."""

    def admit_like(self, token, source_ip, now):
        self._sync()
        if source_ip is not None:
            charged = []
            for limiter, name in ((self._ip_day_limiter, "daily"),
                                  (self._ip_week_limiter, "weekly")):
                if limiter is not None:
                    if limiter.saturated(source_ip, now):
                        return name
                    events = limiter._evict(source_ip, now)
                    if len(events) >= limiter.limit:
                        limiter.mark_saturated(source_ip, events)
                        return name
                    charged.append(events)
            for events in charged:
                events.append(now)
        if self._token_limiter.try_acquire(token, now):
            return None
        return "token"


class DequeAdmitter(LikeWaveAdmitter):
    """The wave admitter whose first touch of a key popped its deque
    and whose flush extended it."""

    __slots__ = ()

    def flush(self):
        for memo, pending in ((self._events, self._pending),
                              (self._day_events, self._day_pending),
                              (self._week_events, self._week_pending)):
            for key, count in pending.items():
                memo[key].extend((self.now,) * count)

    def _room_of(self, limiter, key, rooms, events_memo):
        now = self.now
        until = limiter._saturated_until.get(key)
        if until is not None:
            if now < until:
                rooms[key] = -1
                return -1
            del limiter._saturated_until[key]
        events = limiter._events.get(key)
        if events is None:
            events = limiter._events[key] = deque()
        else:
            horizon = now - limiter.window_seconds
            while events and events[0] <= horizon:
                events.popleft()
        events_memo[key] = events
        room = limiter.limit - len(events)
        if room <= 0:
            limiter.mark_saturated(key, events)
            rooms[key] = -1
            return -1
        rooms[key] = room
        return room


def reference_enforcer(policy):
    """A :class:`DequeEnforcer` over deque limiters."""
    enforcer = DequeEnforcer(policy)
    for name in ("_token_limiter", "_ip_day_limiter", "_ip_week_limiter"):
        limiter = getattr(enforcer, name)
        if limiter is not None:
            setattr(enforcer, name,
                    DequeLimiter(limiter.limit, limiter.window_seconds))
    return enforcer


#: What ``DeliveryWave.charge`` returns for an admitter verdict.
CHARGE_CODES = {None: None, "token": "token_limit", "daily": "ip_limit",
                "weekly": "ip_limit"}


# ----------------------------------------------------------------------
# The step sequences.
# ----------------------------------------------------------------------

KEYS = 3
IPS = ("10.60.0.1", "10.60.0.2", None)

# Six-hour steps over ten days: both the daily and the weekly windows
# expire events, and a random order repeats and rewinds timestamps.
times = st.integers(min_value=0, max_value=40).map(lambda k: k * 6 * HOUR)
keys = st.integers(min_value=0, max_value=KEYS - 1)
ips = st.integers(min_value=0, max_value=len(IPS) - 1)
windows = st.dictionaries(
    keys,
    st.tuples(st.none() | st.lists(times, max_size=6).map(tuple),
              st.none() | times),
    max_size=KEYS)

steps = st.one_of(
    st.tuples(st.sampled_from(("hit", "try_acquire", "usage",
                               "saturated")), keys, times),
    st.tuples(st.just("admit_like"), keys, ips, times),
    st.tuples(st.just("export"), st.none() | st.sets(keys)),
    st.tuples(st.just("install"), windows),
    st.tuples(st.just("wave"), times,
              st.lists(st.tuples(st.sampled_from(("admit", "charge")),
                                 keys, ips), max_size=12)),
)


def _token_world(limit, ip_day, ip_week):
    """A world whose API holds ``KEYS`` live tokens of one app, under
    these limits."""
    world = World(StudyConfig(scale=0.01, seed=42))
    app = world.apps.register(
        "Wave App", "https://wave.example/cb",
        security=AppSecuritySettings(True, False),
        approved_permissions=PermissionScope.full(),
        token_lifetime=TokenLifetime.LONG_TERM)
    tokens = []
    for index in range(KEYS):
        user = world.platform.register_account(f"User {index}")
        result = world.auth_server.authorize(
            AuthorizationRequest(app.app_id, app.redirect_uri, "token",
                                 app.approved_permissions),
            user.account_id)
        tokens.append(result.access_token.token)
    world.policy.token_actions_per_day = limit
    world.policy.ip_likes_per_day = ip_day
    world.policy.ip_likes_per_week = ip_week
    return world, tokens


def _state(enforcer):
    """Every window as tuples, and every saturation memo."""
    out = {}
    for name, limiter in enforcer._limiters().items():
        if limiter is not None:
            out[name] = ({key: tuple(events)
                          for key, events in limiter._events.items()},
                         dict(limiter._saturated_until))
    return out


def _run(enforcer, step, tokens, wave_round):
    kind = step[0]
    limiter = enforcer._token_limiter
    if kind in ("hit", "try_acquire", "usage", "saturated"):
        _, key, now = step
        return getattr(limiter, kind)(tokens[key], now)
    if kind == "admit_like":
        _, key, ip, now = step
        return enforcer.admit_like(tokens[key], IPS[ip], now)
    if kind == "export":
        chosen = step[1]
        return limiter.export_state(
            None if chosen is None else [tokens[key] for key in chosen])
    if kind == "install":
        limiter.install_state({tokens[key]: window
                               for key, window in step[1].items()})
        return None
    return wave_round(step[1], step[2])


@settings(max_examples=500, deadline=None)
@given(limit=st.integers(min_value=1, max_value=4),
       ip_day=st.none() | st.integers(min_value=1, max_value=4),
       ip_week=st.none() | st.integers(min_value=1, max_value=6),
       sequence=st.lists(steps, max_size=25))
def test_list_windows_match_the_deque_reference(limit, ip_day, ip_week,
                                                sequence):
    world, tokens = _token_world(limit, ip_day, ip_week)
    enforcer = world.api.enforcer
    reference = reference_enforcer(RateLimitPolicy(
        token_actions_per_day=limit, ip_likes_per_day=ip_day,
        ip_likes_per_week=ip_week))
    enforcer._sync()

    def wave(now, entries):
        # Waves read the clock's instant; setting it directly lets a
        # wave land behind the windows' newest events.
        world.clock._now = now
        opened = world.api.delivery_wave()
        verdicts = []
        for kind, key, ip in entries:
            if kind == "charge":
                verdicts.append(opened.charge(tokens[key], IPS[ip]))
            else:
                verdicts.append(opened._admitter.admit(tokens[key], IPS[ip]))
        opened.finish()
        return verdicts

    def reference_wave(now, entries):
        admitter = DequeAdmitter(reference._token_limiter,
                                 reference._ip_day_limiter,
                                 reference._ip_week_limiter, now)
        verdicts = []
        for kind, key, ip in entries:
            verdict = admitter.admit(tokens[key], IPS[ip])
            verdicts.append(CHARGE_CODES[verdict] if kind == "charge"
                            else verdict)
        admitter.flush()
        return verdicts

    for step in sequence:
        got = _run(enforcer, step, tokens, wave)
        expected = _run(reference, step, tokens, reference_wave)
        assert got == expected, step
        assert _state(enforcer) == _state(reference), step
        for limiter in enforcer._limiters().values():
            if limiter is not None:
                assert all(type(events) is list
                           for events in limiter._events.values())


# ----------------------------------------------------------------------
# The footprint.
# ----------------------------------------------------------------------


def test_a_new_window_is_a_list():
    limiter = SlidingWindowLimiter(limit=2, window_seconds=DAY)
    assert limiter.usage("idle", 0) == 0
    limiter.hit("hit", 0)
    assert limiter.try_acquire("acquired", 0)
    enforcer = PolicyEnforcer(RateLimitPolicy(ip_likes_per_day=2,
                                              ip_likes_per_week=3))
    assert enforcer.admit_like("liked", "10.60.0.2", 0) is None
    wave = enforcer.like_wave(0)
    assert wave.admit("token", "10.60.0.1") is None
    assert wave.admit("token", None) is None
    assert wave.admit("once", None) is None
    wave.flush()
    windows = [*limiter._events.values(),
               *enforcer._token_limiter._events.values(),
               *enforcer._ip_day_limiter._events.values(),
               *enforcer._ip_week_limiter._events.values()]
    for events in windows:
        assert type(events) is list
        # A window's first events are an exact-size list, not an
        # empty one grown by append or extend.
        assert sys.getsizeof(events) == sys.getsizeof([0] * len(events))
    assert limiter._events == {"idle": [], "hit": [0], "acquired": [0]}
    assert enforcer._token_limiter._events == {
        "liked": [0], "token": [0, 0], "once": [0]}
    # A window emptied by eviction takes its next event the same way.
    limiter.hit("hit", 2 * DAY)
    assert limiter._events["hit"] == [2 * DAY]
    assert sys.getsizeof(limiter._events["hit"]) == sys.getsizeof([0])


def test_records_kept_per_member_have_no_instance_dict():
    world, tokens = _token_world(limit=2, ip_day=None, ip_week=None)
    token = world.tokens.peek(tokens[0])
    account = world.platform.get_account(token.user_id)
    ledger = MilkedTokenLedger()
    observation = ledger.observe(account.account_id, "net.a", 10, day=0)
    for record in (token, account, observation):
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_accounts_without_friends_share_one_empty_set():
    world = World(StudyConfig(scale=0.01, seed=42))
    a, b, c = (world.platform.register_account(name).account_id
               for name in ("A", "B", "C"))
    accounts = world.platform.accounts
    shared = accounts[c].friend_ids
    assert not shared
    assert accounts[a].friend_ids is shared is accounts[b].friend_ids
    world.platform.befriend(a, b)
    assert accounts[a].friend_ids == {b}
    assert accounts[b].friend_ids == {a}
    assert accounts[a].friend_ids is not accounts[b].friend_ids
    # The third account still holds the shared set, and it stayed empty.
    assert accounts[c].friend_ids is shared
    assert not shared
    world.platform.befriend(a, c)
    assert accounts[a].friend_ids == {b, c}
    assert accounts[c].friend_ids == {a}
    assert not shared
    # An account loaded from a checkpoint holds an empty frozenset of
    # its own, not the shared one; its first friend replaces it too.
    d = world.platform.register_account("D").account_id
    accounts[d] = pickle.loads(pickle.dumps(accounts[d]))
    assert accounts[d].friend_ids is not shared
    world.platform.befriend(d, b)
    assert accounts[d].friend_ids == {b}
    assert accounts[b].friend_ids == {a, d}
    assert not shared


def test_a_sighting_keeps_its_networks_in_first_seen_order():
    ledger = MilkedTokenLedger()
    for network in ("net.b", "net.a", "net.b"):
        observation = ledger.observe("acct:1", network, 10, day=0)
    assert observation.network_order == ("net.b", "net.a")
    assert observation.networks == {"net.a", "net.b"}
    assert ledger.multi_network_accounts() == ["acct:1"]
    assert ledger.accounts_for_network("net.a") == ["acct:1"]
    assert ledger.accounts_for_network("net.c") == []


# ----------------------------------------------------------------------
# Each fact once: the token index, the ledger's day lists, the likes.
# ----------------------------------------------------------------------


class TupleKeyedStore(TokenStore):
    """The token store whose index was keyed by ``(user, app)``."""

    def __init__(self, clock):
        super().__init__(clock)
        self._by_user_app = {}

    def issue(self, user_id, app_id, scope, lifetime):
        now = self._clock.now()
        token = AccessToken(self._mint_token_string(user_id, app_id),
                            user_id, app_id, scope, now,
                            now + lifetime.seconds)
        previous = self._by_user_app.get((user_id, app_id))
        if previous is not None and previous in self._tokens:
            old = self._tokens[previous]
            if old.is_valid(now):
                old.invalidated = True
                old.invalidation_reason = "superseded"
                self._flips.append(old)
        self._tokens[token.token] = token
        self._by_user_app[(user_id, app_id)] = token.token
        return token

    def apply_delta(self, delta):
        super().apply_delta(delta)
        for token, user_id, app_id, *_ in delta["issued"]:
            self._by_user_app[(user_id, app_id)] = token

    def live_token_for(self, user_id, app_id):
        token_string = self._by_user_app.get((user_id, app_id))
        if token_string is None:
            return None
        token = self._tokens[token_string]
        return token if token.is_valid(self._clock.now()) else None


USERS = 4
APPS = 3
_SCOPE = PermissionScope([Permission.PUBLISH_ACTIONS])

_TOKEN_STEPS = st.lists(st.one_of(
    # An issue of a pair that holds a token is a re-issue.
    st.tuples(st.just("issue"), st.integers(0, USERS - 1),
              st.integers(0, APPS - 1), st.sampled_from(TokenLifetime)),
    st.tuples(st.just("invalidate"), st.integers(0, 63)),
    st.tuples(st.just("advance"), st.sampled_from((HOUR, 61 * DAY))),
    st.tuples(st.just("fork")),
    st.tuples(st.just("merge")),
), max_size=50)


def _reads(store):
    """Every pair's live token, the flips in order, every token."""
    live = {}
    for user in range(USERS):
        for app in range(APPS):
            token = store.live_token_for(f"user:{user}", f"app:{app}")
            live[user, app] = None if token is None else token.token
    flips = [(t.token, t.invalidation_reason) for t in store._flips]
    return live, flips, [astuple(t) for t in store._tokens.values()]


@settings(max_examples=300, deadline=None)
@given(_TOKEN_STEPS)
def test_the_app_then_user_index_matches_the_tuple_keyed_one(steps):
    # A fork is a child copy that runs on alone and merges back through
    # export_delta/apply_delta, as a shard child's day does.
    clock = SimClock()
    stores = [TokenStore(clock), TupleKeyedStore(clock)]
    children = marks = None
    for step in steps:
        live = stores if children is None else children
        kind = step[0]
        if kind == "issue":
            for store in live:
                store.issue(f"user:{step[1]}", f"app:{step[2]}", _SCOPE,
                            step[3])
        elif kind == "invalidate":
            for store in live:
                strings = list(store._tokens)
                if strings:
                    store.invalidate(strings[step[1] % len(strings)])
        elif kind == "advance":
            clock.advance(step[1])
        elif kind == "fork" and children is None:
            marks = [store.mark() for store in stores]
            children = [copy.deepcopy(store, {id(clock): clock})
                        for store in stores]
        elif kind == "merge" and children is not None:
            for store, child, mark in zip(stores, children, marks):
                store.apply_delta(child.export_delta(mark))
            children = None
        for side in (stores, children):
            if side is not None:
                assert _reads(side[0]) == _reads(side[1]), step


class SetLedger:
    """The ledger's two by-day reads as they were: a set per day."""

    def __init__(self):
        self.seen = {}
        self.new = {}

    def observe(self, account_id, day):
        self.seen.setdefault(day, set()).add(account_id)
        if all(account_id not in new for new in self.new.values()):
            self.new.setdefault(day, []).append(account_id)

    def observed_on(self, day):
        return sorted(self.seen.get(day, ()))

    def newly_observed_on(self, day):
        return list(self.new.get(day, ()))


DAYS = 5

_SIGHTINGS = st.lists(st.one_of(
    # Days repeat and go backwards.
    st.tuples(st.just("observe"), st.integers(0, 5), st.integers(0, 2),
              st.integers(0, DAYS - 1)),
    # A checkpoint round trip of the whole ledger.
    st.tuples(st.just("checkpoint")),
), max_size=40)


@settings(max_examples=300, deadline=None)
@given(_SIGHTINGS)
def test_the_day_lists_read_as_the_day_sets(steps):
    ledger = MilkedTokenLedger()
    reference = SetLedger()
    for step in steps:
        if step[0] == "checkpoint":
            ledger.install_state(
                pickle.loads(pickle.dumps(ledger.export_state())))
        else:
            _, account, network, day = step
            ledger.observe(f"acct:{account}", f"net.{network}",
                           day * DAY, day)
            reference.observe(f"acct:{account}", day)
        for day in range(DAYS):
            assert ledger.observed_on(day) == reference.observed_on(day)
            assert (ledger.newly_observed_on(day)
                    == reference.newly_observed_on(day))
    # Sightings in day order, as a study makes them, list an account
    # once per day.
    ordered = MilkedTokenLedger()
    for _, account, network, day in sorted(
            (step for step in steps if step[0] == "observe"),
            key=lambda step: step[3]):
        ordered.observe(f"acct:{account}", f"net.{network}", day * DAY, day)
    for day in range(DAYS):
        seen = ordered._seen_by_day.get(day, [])
        assert len(seen) == len(set(seen))
        assert sorted(seen) == reference.observed_on(day)


def test_the_wave_memo_follows_each_token_app_and_scope():
    # Consecutive entries that change only the app, or only the scope
    # object, must not reuse the other's memoized proof rule or grant.
    world = World(StudyConfig(scale=0.01, seed=42))
    open_app, proof_app = (
        world.apps.register(name, f"https://{name}.example/cb",
                            security=AppSecuritySettings(True, proof))
        for name, proof in (("open", False), ("proof", True)))
    author = world.platform.register_account("Author").account_id
    post = world.platform.create_post(author, "hello")
    full, basic = PermissionScope.full(), PermissionScope.basic()

    def token(app, scope):
        user = world.platform.register_account("User").account_id
        return world.tokens.issue(user, app.app_id, scope,
                                  TokenLifetime.LONG_TERM).token

    entries = [
        (token(open_app, full), None),
        (token(proof_app, full), "app_secret"),
        (token(proof_app, basic), "app_secret"),
        (token(open_app, basic), "permission"),
        (token(open_app, full), None),
        ("EAAB" + "0" * 40, "invalid_token"),
        (token(open_app, PermissionScope.full()), None),
    ]
    wave = world.api.delivery_wave(post.post_id)
    expected = [verdict for _token, verdict in entries]
    assert [wave.charge(t, "10.60.0.1") for t, _ in entries] == expected
    assert [wave.like(t, "10.60.0.1") for t, _ in entries] == expected
    wave.finish()
    assert len(post.likes) == expected.count(None)


LIKE_NETWORKS = ("fb-autolikers.com", "autolike.vn")
LIKE_SCALE = 0.002


def _like_campaign(**overrides):
    """A small two-network, 12-day campaign."""
    world = World(StudyConfig(scale=LIKE_SCALE, seed=5))
    AppCatalog(world.apps, world.rng.stream("catalog"),
               tail_apps=0).build()
    ecosystem = build_ecosystem(world, build_membership=False,
                                network_limit=13)
    for domain in LIKE_NETWORKS:
        network = ecosystem.network(domain)
        network.build_membership(network.profile.pool_size(LIKE_SCALE))
    config = CampaignConfig.compressed(12, networks=LIKE_NETWORKS,
                                       hublaa_outage=None, **overrides)
    return CountermeasureCampaign(world, ecosystem, config)


def _assert_each_like_is_its_record(platform, since=0):
    """Every like on a post or page is a ``like`` record of the activity
    log, the one its target's liker index holds, and the log holds no
    other like; returns how many like records came after ``since``."""
    records = platform.activity_log.export_delta(0)
    like_records = {id(record): record for record in records
                    if record.verb == "like"}
    likes = 0
    for target in (*platform.posts.values(), *platform.pages.values()):
        for like in target.likes:
            assert like_records.get(id(like)) is like
            assert target._likers[like.actor_id] is like
            assert like.target_id == (getattr(target, "post_id", None)
                                      or target.page_id)
            likes += 1
    assert likes == len(like_records)
    return sum(record.verb == "like" for record in records[since:])


@pytest.fixture(scope="module")
def chained(tmp_path_factory):
    """A live campaign through day 9, and a twin rebuilt from scratch
    with the campaign's day 1-9 checkpoint chain installed."""
    source = _like_campaign()
    start = source.world.platform.activity_log.mark()
    marks = mark_parts(source)
    base_rows = len(source.world.api.log)
    store = CheckpointStore(str(tmp_path_factory.mktemp("chain")))
    for day in range(1, 10):
        source._run_day(day)
        records = len(source.world.api.log) - base_rows
        store.save(f"day-{day:05d}",
                   capture_checkpoint(source, day, marks, records))
        marks = mark_parts(source)
    twin = _like_campaign()
    twin.world.api.log.append_exported(
        source.world.api.log.export_rows(base_rows))
    for day in range(1, 10):
        install_checkpoint(twin, store.load(f"day-{day:05d}"))
    return source, twin, start


def test_a_like_is_its_activity_record_in_a_live_run(chained):
    source, _twin, start = chained
    assert _assert_each_like_is_its_record(source.world.platform, start)


def test_a_like_is_its_activity_record_after_a_checkpoint_chain(chained):
    source, twin, start = chained
    assert (_assert_each_like_is_its_record(twin.world.platform, start)
            == _assert_each_like_is_its_record(source.world.platform,
                                               start))


def test_a_like_is_its_activity_record_after_a_sharded_merge():
    # Outgoing activity would keep the campaign serial.
    campaign = _like_campaign(shards=2, outgoing_per_hour=0.0)
    assert campaign.shard_plan.effective_shards == 2
    start = campaign.world.platform.activity_log.mark()
    for day in range(1, 4):
        campaign._run_day(day)
    assert not campaign.shard_supervisor.failures
    assert _assert_each_like_is_its_record(campaign.world.platform, start)
