"""Tests for the rate-limiting primitives."""

import pytest

from repro.graphapi.ratelimit import (
    PolicyEnforcer,
    RateLimitPolicy,
    SlidingWindowLimiter,
)
from repro.sim.clock import DAY, HOUR


def test_limiter_allows_up_to_limit():
    limiter = SlidingWindowLimiter(limit=2, window_seconds=100)
    assert limiter.try_acquire("k", 0)
    assert limiter.try_acquire("k", 10)
    assert not limiter.try_acquire("k", 20)


def test_limiter_window_slides():
    limiter = SlidingWindowLimiter(limit=1, window_seconds=100)
    assert limiter.try_acquire("k", 0)
    assert not limiter.try_acquire("k", 99)
    assert limiter.try_acquire("k", 101)


def test_limiter_keys_independent():
    limiter = SlidingWindowLimiter(limit=1, window_seconds=100)
    assert limiter.try_acquire("a", 0)
    assert limiter.try_acquire("b", 0)


def test_limiter_usage():
    limiter = SlidingWindowLimiter(limit=5, window_seconds=100)
    limiter.hit("k", 0)
    limiter.hit("k", 50)
    assert limiter.usage("k", 60) == 2
    assert limiter.usage("k", 140) == 1


def test_limiter_validates_args():
    with pytest.raises(ValueError):
        SlidingWindowLimiter(limit=0, window_seconds=10)
    with pytest.raises(ValueError):
        SlidingWindowLimiter(limit=1, window_seconds=0)


def test_policy_defaults():
    policy = RateLimitPolicy()
    assert policy.ip_likes_per_day is None
    assert policy.ip_likes_per_week is None
    assert not policy.is_as_blocked("app:1", 64500)


def test_policy_as_blocking_scoped_per_app():
    policy = RateLimitPolicy()
    policy.block_as_for_app("app:1", 64500)
    assert policy.is_as_blocked("app:1", 64500)
    assert not policy.is_as_blocked("app:2", 64500)
    assert not policy.is_as_blocked("app:1", None)


def test_enforcer_token_budget():
    policy = RateLimitPolicy(token_actions_per_day=2)
    enforcer = PolicyEnforcer(policy)
    assert enforcer.admit_token_action("t", 0)
    assert enforcer.admit_token_action("t", 1)
    assert not enforcer.admit_token_action("t", 2)


def test_enforcer_rebuilds_on_policy_change():
    policy = RateLimitPolicy(token_actions_per_day=1)
    enforcer = PolicyEnforcer(policy)
    assert enforcer.admit_token_action("t", 0)
    assert not enforcer.admit_token_action("t", 1)
    policy.token_actions_per_day = 10
    assert enforcer.admit_token_action("t", 2)


# The IP-window tests give every like a fresh token, so the per-token
# budget never decides a verdict.
def test_enforcer_ip_limits_disabled_by_default():
    enforcer = PolicyEnforcer(RateLimitPolicy())
    for i in range(1000):
        assert enforcer.admit_like(f"t{i}", "1.2.3.4", i) is None


def test_enforcer_ip_daily_and_weekly():
    policy = RateLimitPolicy(ip_likes_per_day=2, ip_likes_per_week=3)
    enforcer = PolicyEnforcer(policy)
    assert enforcer.admit_like("t0", "ip", 0) is None
    assert enforcer.admit_like("t1", "ip", 1) is None
    assert enforcer.admit_like("t2", "ip", 2) == "daily"
    # Next day the daily window clears but the weekly one still counts.
    later = DAY + HOUR
    assert enforcer.admit_like("t3", "ip", later) is None
    assert enforcer.admit_like("t4", "ip", later + 1) == "weekly"


def test_enforcer_missing_ip_never_limited():
    policy = RateLimitPolicy(ip_likes_per_day=1)
    enforcer = PolicyEnforcer(policy)
    for i in range(10):
        assert enforcer.admit_like(f"t{i}", None, i) is None


def test_saturation_memo_survives_lazy_eviction():
    """Regression: the memo stays exact even after an unrelated read
    evicts expired events from the key's window while it is saturated.

    ``hit()`` records unconditionally, so a window can hold more events
    than ``limit``; the memo expiry is pinned to the event that must
    expire before the key can admit again, not to the window's head.
    """
    limiter = SlidingWindowLimiter(limit=3, window_seconds=100)
    for t in (0, 10, 20, 30):  # one past the limit
        limiter.hit("k", t)
    # Saturated: admits resume when the event at t=10 leaves the window.
    assert not limiter.try_acquire("k", 40)
    assert limiter._saturated_until["k"] == 110
    # An unrelated usage() probe lazily evicts the t=0 event...
    assert limiter.usage("k", 105) == 3
    # ...but the memo still rejects right up to its exact expiry.
    assert not limiter.try_acquire("k", 109)
    assert limiter.try_acquire("k", 110)
    assert "k" not in limiter._saturated_until


def test_saturation_memo_cleared_on_expiry_probe():
    limiter = SlidingWindowLimiter(limit=1, window_seconds=100)
    assert limiter.try_acquire("k", 0)
    assert not limiter.try_acquire("k", 50)
    assert limiter.saturated("k", 60)
    # Probing at/after expiry deletes the memo entry (lazy eviction).
    assert not limiter.saturated("k", 100)
    assert "k" not in limiter._saturated_until
    assert limiter.try_acquire("k", 100)
