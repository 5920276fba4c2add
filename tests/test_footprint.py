"""What the records a study keeps per token, account and sighting hold.

A paper-scale study keeps about a million of each, so each record pays
only for what it holds: a rate-limit window is a plain list, not a
deque; ``AccessToken``, ``Account`` and ``Observation`` are slotted;
accounts without friends share one empty ``friend_ids``; and a ledger
sighting keeps its networks as a tuple.

The reference here is the window as it was: a deque per key, its
expired head dropped by a ``popleft`` loop, in the limiter's eviction
and in the wave admitter's first touch of a key.  Random sequences of
limiter calls, state transfers and delivery-wave rounds (``admit``,
``DeliveryWave.charge`` and the flush at ``finish``), with timestamps
that repeat and go backwards, must give the same verdicts and leave the
same windows and saturation memos on both.
"""

from __future__ import annotations

import pickle
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StudyConfig
from repro.core.world import World
from repro.graphapi.ratelimit import (
    LikeWaveAdmitter,
    PolicyEnforcer,
    RateLimitPolicy,
    SlidingWindowLimiter,
)
from repro.honeypot.ledger import MilkedTokenLedger
from repro.oauth.apps import AppSecuritySettings
from repro.oauth.scopes import PermissionScope
from repro.oauth.server import AuthorizationRequest
from repro.oauth.tokens import TokenLifetime
from repro.sim.clock import DAY, HOUR

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


class DequeAdmitter(LikeWaveAdmitter):
    """The wave admitter whose first touch of a key popped its deque."""

    __slots__ = ()

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
    """A :class:`PolicyEnforcer` over deque limiters."""
    enforcer = PolicyEnforcer(policy)
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
    enforcer = PolicyEnforcer(RateLimitPolicy(ip_likes_per_day=2))
    wave = enforcer.like_wave(0)
    assert wave.admit("token", "10.60.0.1") is None
    wave.flush()
    for events in (*limiter._events.values(),
                   *enforcer._token_limiter._events.values(),
                   *enforcer._ip_day_limiter._events.values()):
        assert type(events) is list
    assert limiter._events == {"idle": [], "hit": [0], "acquired": [0]}


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
