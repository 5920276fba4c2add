"""Rate limiting primitives and the mutable platform rate-limit policy.

:class:`RateLimitPolicy` is the knob panel the §6 countermeasures turn:
the per-token action limit (§6.1), per-IP daily/weekly like limits (§6.4)
and the AS blocklist for protected applications (§6.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.oauth.redact import redact_token
from repro.sanitizer.trace import SANITIZER as _SANITIZER
from repro.sim.clock import DAY

#: Facebook's baseline per-token write budget.  Generous enough that the
#: paper observes collusion traffic "slips under the current rate limit".
DEFAULT_TOKEN_ACTIONS_PER_DAY = 600

#: §6.1: "we reduce the rate limit by more than an order of magnitude".
REDUCED_TOKEN_ACTIONS_PER_DAY = 40


def drop_expired(events: List[int], horizon: int) -> None:
    """Drop a window's leading events at or before ``horizon``.

    The same left-to-right scan a ``popleft`` loop over a deque makes,
    stopping at the first event past the horizon, then one slice
    delete.  A window is a plain list: most keys hold zero or one
    event, and an empty list costs 56 bytes where a deque costs 760.
    """
    count = 0
    size = len(events)
    while count < size and events[count] <= horizon:
        count += 1
    del events[:count]


class SlidingWindowLimiter:
    """Counts events per key within a sliding time window.

    ``try_acquire(key, now)`` checks and records one event under
    ``limit``; ``hit(key, now)`` records one unconditionally.  Each
    key's window is a list of timestamps, oldest first, whose expired
    head is dropped lazily per key (:func:`drop_expired`).
    """

    #: The eviction memo, left out of the state: it is a same-timestamp
    #: cache, only meaningful while this process sits at one ``now``,
    #: so installs reset it (a forced re-eviction is an idempotent
    #: no-op).
    _TRANSIENT = ("_evict_now", "_evicted")

    def __init__(self, limit: int, window_seconds: int) -> None:
        if limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        if window_seconds <= 0:
            raise ValueError(f"window must be positive, got {window_seconds}")
        self.limit = limit
        self.window_seconds = window_seconds
        self._events: Dict[str, List[int]] = {}
        # Saturation memo: key -> earliest time the key can admit again.
        # A rejected request records nothing, so while a key is saturated
        # its window is static and that time is exact — repeated rejects
        # become one dict probe instead of an eviction pass.
        self._saturated_until: Dict[str, int] = {}
        # Eviction memo: keys already evicted at `_evict_now`.  Events
        # are only ever appended at the current time, and an event
        # appended at `now` cannot fall behind the `now - window`
        # horizon, so a second eviction pass at the same timestamp is
        # provably a no-op.
        self._evict_now = -1
        self._evicted: Set[str] = set()

    def _evict(self, key: str, now: int) -> List[int]:
        events = self._events.get(key)
        if events is None:
            events = self._events[key] = []
            return events
        if now != self._evict_now:
            self._evict_now = now
            self._evicted.clear()
        elif key in self._evicted:
            return events
        horizon = now - self.window_seconds
        if events and events[0] <= horizon:
            drop_expired(events, horizon)
        self._evicted.add(key)
        return events

    def saturated(self, key: str, now: int) -> bool:
        """Whether ``key`` is memoized as still at its limit."""
        until = self._saturated_until.get(key)
        if until is None:
            return False
        if now < until:
            return True
        del self._saturated_until[key]
        return False

    def mark_saturated(self, key: str, events: List[int]) -> None:
        """Memoize a full window: admits resume once the
        ``len(events) - limit + 1`` oldest events have expired."""
        self._saturated_until[key] = (events[len(events) - self.limit]
                                      + self.window_seconds)
        if _SANITIZER.enabled:
            _SANITIZER.record_limiter("saturate", redact_token(key))

    def usage(self, key: str, now: int) -> int:
        """Events currently counted against ``key``."""
        return len(self._evict(key, now))

    def _record(self, key: str, events: List[int], now: int) -> None:
        """Add ``now`` to ``key``'s window ``events``.  An empty window
        becomes ``[now]`` (64 bytes) rather than grow by an append (88):
        most windows hold one event."""
        if events:
            events.append(now)
        else:
            self._events[key] = [now]

    def hit(self, key: str, now: int) -> None:
        self._record(key, self._evict(key, now), now)

    def try_acquire(self, key: str, now: int) -> bool:
        """Atomically check-and-record; True if the event was admitted."""
        if self.saturated(key, now):
            return False
        events = self._evict(key, now)
        if len(events) >= self.limit:
            self.mark_saturated(key, events)
            return False
        self._record(key, events, now)
        return True

    # ------------------------------------------------------------------
    # State transfer (shard deltas and campaign checkpoints)
    # ------------------------------------------------------------------
    def export_state(self, keys=None) -> Dict[str, tuple]:
        """Window state per key, as picklable ``(events, until)`` tuples.

        With ``keys`` only those keys that hold any state (events or a
        saturation memo) are exported; without, every key is — empty
        windows and memo-only keys included.  The transient
        same-timestamp eviction memo is deliberately not exported: it
        is only valid within the exporting process's current ``now``.
        """
        events_map = self._events
        saturated = self._saturated_until
        if keys is None:
            keys = {**events_map, **saturated}
        out: Dict[str, tuple] = {}
        for key in keys:
            events = events_map.get(key)
            until = saturated.get(key)
            if events is not None or until is not None:
                out[key] = (None if events is None else tuple(events),
                            until)
        return out

    def install_state(self, windows: Dict[str, tuple]) -> None:
        """Adopt :meth:`export_state` output, replacing local state for
        exactly the exported keys."""
        for key, (events, until) in windows.items():
            if events is None:
                self._events.pop(key, None)
            else:
                self._events[key] = list(events)
            if until is None:
                self._saturated_until.pop(key, None)
            else:
                self._saturated_until[key] = until
        # The adopted windows may be shorter than what the memo saw, so
        # force a fresh eviction pass on the next touch of any key.
        self._evict_now = -1
        self._evicted.clear()


@dataclass
class RateLimitPolicy:
    """The platform's mutable abuse-limit configuration.

    All limits default to "off" (None) except the per-token budget, which
    models Facebook's always-on baseline limit.
    """

    token_actions_per_day: int = DEFAULT_TOKEN_ACTIONS_PER_DAY
    ip_likes_per_day: Optional[int] = None
    ip_likes_per_week: Optional[int] = None
    #: ASes whose like requests are blocked, per protected app id.  The
    #: paper scopes AS blocking to the susceptible applications only, "to
    #: mitigate the risk of collateral damage to other applications".
    blocked_asns_by_app: Dict[str, Set[int]] = field(default_factory=dict)

    def block_as_for_app(self, app_id: str, asn: int) -> None:
        self.blocked_asns_by_app.setdefault(app_id, set()).add(asn)

    def is_as_blocked(self, app_id: str, asn: Optional[int]) -> bool:
        if asn is None:
            return False
        return asn in self.blocked_asns_by_app.get(app_id, ())


class PolicyEnforcer:
    """Binds a :class:`RateLimitPolicy` to concrete sliding-window state.

    Rebuilds windows when the policy's numeric limits change (the
    countermeasure campaign lowers the token limit mid-flight).
    """

    def __init__(self, policy: RateLimitPolicy) -> None:
        self.policy = policy
        self._token_limiter = SlidingWindowLimiter(
            policy.token_actions_per_day, DAY)
        self._ip_day_limiter: Optional[SlidingWindowLimiter] = None
        self._ip_week_limiter: Optional[SlidingWindowLimiter] = None
        self._sync()

    def _sync(self) -> None:
        if self._token_limiter.limit != self.policy.token_actions_per_day:
            self._token_limiter = SlidingWindowLimiter(
                self.policy.token_actions_per_day, DAY)
        if self.policy.ip_likes_per_day is None:
            self._ip_day_limiter = None
        elif (self._ip_day_limiter is None
              or self._ip_day_limiter.limit != self.policy.ip_likes_per_day):
            self._ip_day_limiter = SlidingWindowLimiter(
                self.policy.ip_likes_per_day, DAY)
        if self.policy.ip_likes_per_week is None:
            self._ip_week_limiter = None
        elif (self._ip_week_limiter is None
              or self._ip_week_limiter.limit != self.policy.ip_likes_per_week):
            self._ip_week_limiter = SlidingWindowLimiter(
                self.policy.ip_likes_per_week, 7 * DAY)

    def window_occupancy(self) -> Dict[str, Tuple[int, int]]:
        """Deterministic ``window -> (tracked keys, resident events)``.

        Purely observational — no eviction pass, no saturation-memo
        update — so sampling it (the telemetry day-end gauges) cannot
        perturb the simulation.  Resident counts include events a lazy
        eviction has not dropped yet; with identical admission history
        the counts are identical, which is what the serial-vs-sharded
        metrics identity relies on.
        """
        occupancy: Dict[str, Tuple[int, int]] = {}
        for name, limiter in (("token", self._token_limiter),
                              ("ip_daily", self._ip_day_limiter),
                              ("ip_weekly", self._ip_week_limiter)):
            if limiter is None:
                continue
            events = limiter._events
            occupancy[name] = (
                len(events), sum(len(q) for q in events.values()))
        return occupancy

    def admit_token_action(self, token: str, now: int) -> bool:
        """Check-and-record one write action for ``token``."""
        self._sync()
        return self._token_limiter.try_acquire(token, now)

    def admit_like(self, token: str, source_ip: Optional[str],
                   now: int) -> Optional[str]:
        """Check-and-record one like: the source IP's daily and weekly
        windows (§6.4), then the token's action budget (§6.1).

        IP windows are charged even when the token budget then rejects;
        a request without a source IP is never IP-limited.  Returns
        ``None`` if admitted, else the violated limit name (``"daily"``
        / ``"weekly"`` / ``"token"``).
        """
        self._sync()
        if source_ip is not None:
            day_events = week_events = None
            day = self._ip_day_limiter
            if day is not None:
                if day.saturated(source_ip, now):
                    return "daily"
                day_events = day._evict(source_ip, now)
                if len(day_events) >= day.limit:
                    day.mark_saturated(source_ip, day_events)
                    return "daily"
            week = self._ip_week_limiter
            if week is not None:
                if week.saturated(source_ip, now):
                    return "weekly"
                week_events = week._evict(source_ip, now)
                if len(week_events) >= week.limit:
                    week.mark_saturated(source_ip, week_events)
                    return "weekly"
            if day_events is not None:
                day._record(source_ip, day_events, now)
            if week_events is not None:
                week._record(source_ip, week_events, now)
        limiter = self._token_limiter
        if limiter.saturated(token, now):
            return "token"
        events = limiter._evict(token, now)
        if len(events) >= limiter.limit:
            limiter.mark_saturated(token, events)
            return "token"
        limiter._record(token, events, now)
        return None

    # ------------------------------------------------------------------
    # Wave admission (memoized per-(key, wave-timestamp) transitions)
    # ------------------------------------------------------------------
    def like_wave(self, now: int) -> "LikeWaveAdmitter":
        """Open a delivery wave at timestamp ``now``.

        The returned admitter answers per-entry like admissions with the
        exact verdicts — in the exact order — that per-request
        :meth:`admit_like` calls at the same timestamp would produce,
        but computes each key's remaining window capacity once and then
        decrements in O(1); the recorded hits land in bulk at
        :meth:`LikeWaveAdmitter.flush`.  tests/test_batch_equivalence.py
        pins the equality against an :meth:`admit_like` reference."""
        self._sync()
        return LikeWaveAdmitter(self._token_limiter, self._ip_day_limiter,
                                self._ip_week_limiter, now)

    # ------------------------------------------------------------------
    # State transfer (shard deltas and campaign checkpoints)
    # ------------------------------------------------------------------
    def _limiters(self) -> Dict[str, Optional[SlidingWindowLimiter]]:
        return {"token": self._token_limiter,
                "ip_day": self._ip_day_limiter,
                "ip_week": self._ip_week_limiter}

    def export_state(self, keys=None) -> Dict:
        """Policy plus window state.

        ``keys`` narrows the windows to the keys a shard owns (its
        token strings and server IPs); a checkpoint passes nothing and
        gets every key of every live limiter.
        """
        self._sync()
        policy = self.policy
        state: Dict = {
            "policy": {
                "token_actions_per_day": policy.token_actions_per_day,
                "ip_likes_per_day": policy.ip_likes_per_day,
                "ip_likes_per_week": policy.ip_likes_per_week,
                "blocked_asns_by_app": {
                    app: set(asns) for app, asns
                    in policy.blocked_asns_by_app.items()},
            },
        }
        for name, limiter in self._limiters().items():
            if limiter is not None:
                state[name] = limiter.export_state(keys)
        return state

    def install_state(self, state: Dict) -> None:
        """Adopt :meth:`export_state` output: the policy, then exactly
        the exported window keys.

        Installing a full export onto a rebuilt world equals replacing
        the windows wholesale: window keys only grow during a run, and
        :meth:`_sync` rebuilds a limiter empty when its limit changes.
        """
        policy = self.policy
        fields = state["policy"]
        policy.token_actions_per_day = fields["token_actions_per_day"]
        policy.ip_likes_per_day = fields["ip_likes_per_day"]
        policy.ip_likes_per_week = fields["ip_likes_per_week"]
        policy.blocked_asns_by_app = {
            app: set(asns)
            for app, asns in fields["blocked_asns_by_app"].items()}
        self._sync()
        for name, limiter in self._limiters().items():
            if limiter is not None and name in state:
                limiter.install_state(state[name])


class LikeWaveAdmitter:
    """Memoized admission state for one delivery wave.

    All requests in a wave share one timestamp, so a key's sliding
    window cannot lose events mid-wave: its admission capacity ("room")
    is a single number computed once — saturation memo, eviction, limit
    — and every further admission for that key is a dict probe plus a
    decrement.  Pending hits are appended to the windows in one bulk
    :meth:`flush`, which leaves limiter state byte-identical to the
    equivalent per-request :meth:`PolicyEnforcer.admit_like` sequence
    (including the saturation memos that sequence would have set).

    Room encoding per key: ``n > 0`` admits remain; ``0`` the wave
    consumed the window but no request has been rejected yet
    (:meth:`PolicyEnforcer.admit_like` would not have memoized
    saturation either); ``-1`` saturated and memoized.
    """

    __slots__ = (
        "now", "token_only", "_token_limiter", "_day", "_week",
        "_rooms", "_pending", "_events",
        "_day_rooms", "_day_pending", "_day_events",
        "_week_rooms", "_week_pending", "_week_events",
    )

    def __init__(self, token_limiter: SlidingWindowLimiter,
                 day: Optional[SlidingWindowLimiter],
                 week: Optional[SlidingWindowLimiter], now: int) -> None:
        self.now = now
        self._token_limiter = token_limiter
        self._day = day
        self._week = week
        self.token_only = day is None and week is None
        self._rooms: Dict[str, int] = {}
        self._pending: Dict[str, int] = {}
        self._events: Dict[str, List[int]] = {}
        self._day_rooms: Dict[str, int] = {}
        self._day_pending: Dict[str, int] = {}
        self._day_events: Dict[str, List[int]] = {}
        self._week_rooms: Dict[str, int] = {}
        self._week_pending: Dict[str, int] = {}
        self._week_events: Dict[str, List[int]] = {}

    def _room_of(self, limiter: SlidingWindowLimiter, key: str,
                 rooms: Dict[str, int],
                 events_memo: Dict[str, List[int]]) -> int:
        """First touch of ``key`` this wave: resolve its capacity.

        Eviction is inlined rather than routed through
        :meth:`SlidingWindowLimiter._evict`: a wave touches each key's
        window exactly once, so the limiter's same-timestamp eviction
        memo could never hit here, and :func:`drop_expired` leaves the
        identical window."""
        now = self.now
        until = limiter._saturated_until.get(key)
        if until is not None:
            if now < until:
                rooms[key] = -1
                return -1
            del limiter._saturated_until[key]
        events = limiter._events.get(key)
        if events is None:
            events = limiter._events[key] = []
        else:
            horizon = now - limiter.window_seconds
            if events and events[0] <= horizon:
                drop_expired(events, horizon)
        events_memo[key] = events
        room = limiter.limit - len(events)
        if room <= 0:
            limiter.mark_saturated(key, events)
            rooms[key] = -1
            return -1
        rooms[key] = room
        return room

    def _exhaust(self, limiter: SlidingWindowLimiter, key: str,
                 rooms: Dict[str, int], events_memo: Dict[str, List[int]],
                 pending: Dict[str, int]) -> None:
        """First rejection after this wave consumed the key's room.

        Memoizes saturation exactly as :meth:`PolicyEnforcer.admit_like`
        would at this point — where the window would already contain the
        wave's hits, which here are still pending."""
        events = events_memo[key]
        count = pending.get(key, 0)
        idx = len(events) + count - limiter.limit
        base = events[idx] if idx < len(events) else self.now
        limiter._saturated_until[key] = base + limiter.window_seconds
        rooms[key] = -1
        if _SANITIZER.enabled:
            _SANITIZER.record_limiter("exhaust", redact_token(key))

    def admit(self, token: str, source_ip: Optional[str]) -> Optional[str]:
        """Per-entry verdict: ``None`` admitted, else ``"daily"`` /
        ``"weekly"`` / ``"token"``.  IP windows are charged even when
        the token budget then rejects, as in
        :meth:`PolicyEnforcer.admit_like`."""
        if source_ip is not None and not self.token_only:
            day = self._day
            if day is not None:
                room = self._day_rooms.get(source_ip)
                if room is None:
                    room = self._room_of(day, source_ip, self._day_rooms,
                                         self._day_events)
                if room <= 0:
                    if room == 0:
                        self._exhaust(day, source_ip, self._day_rooms,
                                      self._day_events, self._day_pending)
                    return "daily"
            week = self._week
            if week is not None:
                room = self._week_rooms.get(source_ip)
                if room is None:
                    room = self._room_of(week, source_ip, self._week_rooms,
                                         self._week_events)
                if room <= 0:
                    if room == 0:
                        self._exhaust(week, source_ip, self._week_rooms,
                                      self._week_events, self._week_pending)
                    return "weekly"
            if day is not None:
                self._day_rooms[source_ip] -= 1
                self._day_pending[source_ip] = (
                    self._day_pending.get(source_ip, 0) + 1)
            if week is not None:
                self._week_rooms[source_ip] -= 1
                self._week_pending[source_ip] = (
                    self._week_pending.get(source_ip, 0) + 1)
        rooms = self._rooms
        room = rooms.get(token)
        if room is None:
            room = self._room_of(self._token_limiter, token, rooms,
                                 self._events)
        if room <= 0:
            if room == 0:
                self._exhaust(self._token_limiter, token, rooms,
                              self._events, self._pending)
            return "token"
        rooms[token] = room - 1
        pending = self._pending
        pending[token] = pending.get(token, 0) + 1
        return None

    def flush(self) -> None:
        """Bulk-append the wave's admitted hits to the live windows; an
        empty window becomes an exact-size list of them."""
        now = self.now
        for limiter, events_memo, pending in (
                (self._token_limiter, self._events, self._pending),
                (self._day, self._day_events, self._day_pending),
                (self._week, self._week_events, self._week_pending)):
            for key, count in pending.items():
                events = events_memo[key]
                if events:
                    events.extend((now,) * count)
                else:
                    limiter._events[key] = [now] * count
