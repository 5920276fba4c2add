"""RetryPolicy / CircuitBreaker behaviour on the sim clock."""

from __future__ import annotations

import pytest

from repro.faults.retry import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    RetryPolicy,
    deterministic_jitter,
)


# ----------------------------------------------------------------------
# Jitter and backoff
# ----------------------------------------------------------------------
def test_jitter_is_deterministic_and_bounded():
    a = deterministic_jitter("like_post", "member:1", 1, 1000)
    b = deterministic_jitter("like_post", "member:1", 1, 1000)
    assert a == b
    assert 0.0 <= a < 1.0
    assert a != deterministic_jitter("like_post", "member:1", 2, 1000)
    assert a != deterministic_jitter("comment", "member:1", 1, 1000)


def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(base_delay=2, max_delay=300, jitter=0.0)
    delays = [policy.backoff_delay("e", "k", attempt, 0)
              for attempt in range(1, 12)]
    assert delays[:4] == [2, 4, 8, 16]
    assert max(delays) == 300
    assert delays == sorted(delays)


def test_backoff_jitter_inflates_within_bounds():
    plain = RetryPolicy(jitter=0.0).backoff_delay("e", "k", 3, 50)
    jittered = RetryPolicy(jitter=0.5).backoff_delay("e", "k", 3, 50)
    assert plain <= jittered <= int(plain * 1.5) + 1


def test_policy_validates_args():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=0)
    with pytest.raises(ValueError):
        RetryPolicy(max_delay=1, base_delay=2)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=-0.1)


# ----------------------------------------------------------------------
# Retry loop
# ----------------------------------------------------------------------
def test_retry_recovers_after_transient_codes():
    policy = RetryPolicy(max_retries=3)
    codes = iter(["transient", None])
    result = policy.retry("like", "k", 0, lambda: next(codes),
                          "transient")
    assert result is None
    assert policy.counters["retries"] == 2
    assert policy.counters["recoveries"] == 1
    assert policy.counters["giveups"] == 0
    assert policy.counters["backoff_seconds"] > 0


def test_retry_gives_up_after_budget():
    policy = RetryPolicy(max_retries=2)
    result = policy.retry("like", "k", 0, lambda: "timeout", "transient")
    assert result == "timeout"
    assert policy.counters["retries"] == 2
    assert policy.counters["giveups"] == 1


def test_retry_passes_through_terminal_codes():
    policy = RetryPolicy(max_retries=3)
    result = policy.retry("like", "k", 0, lambda: "invalid_token",
                          "transient")
    assert result == "invalid_token"
    assert policy.counters["retries"] == 1
    assert policy.counters["recoveries"] == 1


def test_run_wrapper_skips_retry_on_success():
    policy = RetryPolicy()
    assert policy.run("like", "k", 0, lambda: None) is None
    assert policy.counters["retries"] == 0


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
def test_breaker_opens_after_threshold_failures():
    breaker = CircuitBreaker(threshold=3, cooldown=100)
    for _ in range(2):
        breaker.record_failure("e", now=0)
        assert breaker.state_of("e") == CLOSED
    breaker.record_failure("e", now=0)
    assert breaker.state_of("e") == OPEN
    assert breaker.opens == 1
    assert not breaker.allow("e", now=50)


def test_breaker_half_open_probe_then_close():
    breaker = CircuitBreaker(threshold=1, cooldown=100)
    breaker.record_failure("e", now=0)
    assert not breaker.allow("e", now=99)
    assert breaker.allow("e", now=100)  # half-open probe
    assert breaker.state_of("e") == HALF_OPEN
    breaker.record_success("e")
    assert breaker.state_of("e") == CLOSED


def test_breaker_half_open_failure_reopens():
    breaker = CircuitBreaker(threshold=2, cooldown=100)
    breaker.record_failure("e", now=0)
    breaker.record_failure("e", now=0)
    assert breaker.allow("e", now=100)
    breaker.record_failure("e", now=100)
    assert breaker.state_of("e") == OPEN
    assert not breaker.allow("e", now=150)


def test_open_breaker_fast_fails_retry():
    policy = RetryPolicy(max_retries=1, breaker_threshold=1,
                         breaker_cooldown=1000)
    policy.retry("like", "k", 0, lambda: "transient", "transient")
    assert policy.breaker.state_of("like") == OPEN
    calls = []
    result = policy.retry("like", "k", 10,
                          lambda: calls.append(1) or None, "transient")
    assert result == "transient"  # initial code returned untouched
    assert not calls
    assert policy.counters["fast_fails"] == 1


def test_breaker_endpoints_independent():
    policy = RetryPolicy(max_retries=1, breaker_threshold=1)
    policy.retry("like", "k", 0, lambda: "transient", "transient")
    assert policy.breaker.state_of("like") == OPEN
    assert policy.breaker.state_of("comment") == CLOSED
    assert policy.allow("comment", 0)


# ----------------------------------------------------------------------
# Giving up
# ----------------------------------------------------------------------
def test_attempt_exhaustion_is_recorded_as_attempts():
    policy = RetryPolicy(max_retries=2)
    policy.retry("like", "k", 0, lambda: "timeout", "transient")
    assert policy.counters["giveups"] == 1
    assert policy.counters["retries"] == 2
