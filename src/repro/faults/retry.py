"""Retry policies and circuit breakers for resilient API consumers.

The paper's central §6 observation is that collusion networks are
*resilient* clients: they retry transient failures, back off under
pressure, and adapt rather than abort.  :class:`RetryPolicy` gives the
simulator's API consumers (collusion delivery loops, the honeypot
milker) that behaviour without perturbing determinism:

* backoff delays are exponential with **deterministic jitter** — a hash
  of ``(endpoint, key, attempt, now)`` on the sim clock, never a draw
  from a shared RNG stream — so enabling retries cannot shift any other
  subsystem's random sequence;
* every endpoint gets a :class:`CircuitBreaker`: after
  ``breaker_threshold`` consecutive exhausted retry budgets the breaker
  opens and the consumer fails fast until ``breaker_cooldown`` sim
  seconds pass (half-open probe, then close on success).

Inside a single scheduler event the sim clock cannot advance, so
synchronous loops retry inline and *account* the computed backoff in
:attr:`RetryPolicy.counters` (``backoff_seconds``); schedulable callers
(the milker's follow-up deliveries) use :meth:`backoff_delay` to place
the retry on the event scheduler for real.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict

from repro.telemetry.registry import TELEMETRY

#: Breaker states (string enums keep reprs/debugging simple).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


def deterministic_jitter(endpoint: str, key: str, attempt: int,
                         now: int) -> float:
    """A stable jitter fraction in [0, 1) for one retry decision."""
    digest = hashlib.blake2b(
        f"{endpoint}|{key}|{attempt}|{now}".encode("utf-8"),
        digest_size=4).digest()
    return int.from_bytes(digest, "big") / 2 ** 32


@dataclass
class _BreakerState:
    consecutive_failures: int = 0
    state: str = CLOSED
    open_until: int = 0


class CircuitBreaker:
    """Per-endpoint consecutive-failure breaker on the sim clock."""

    def __init__(self, threshold: int = 8, cooldown: int = 900) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if cooldown <= 0:
            raise ValueError(f"cooldown must be positive, got {cooldown}")
        self.threshold = threshold
        self.cooldown = cooldown
        self._endpoints: Dict[str, _BreakerState] = {}
        self.opens = 0

    def _state(self, endpoint: str) -> _BreakerState:
        state = self._endpoints.get(endpoint)
        if state is None:
            state = self._endpoints[endpoint] = _BreakerState()
        return state

    def allow(self, endpoint: str, now: int) -> bool:
        """Whether the endpoint may be tried (closed or half-open)."""
        state = self._endpoints.get(endpoint)
        if state is None or state.state == CLOSED:
            return True
        if state.state == OPEN:
            if now < state.open_until:
                return False
            state.state = HALF_OPEN
            if TELEMETRY.enabled:
                TELEMETRY.count("breaker_transitions_total",
                                endpoint=endpoint, state=HALF_OPEN)
        return True  # half-open: let one probe through

    def record_success(self, endpoint: str) -> None:
        state = self._endpoints.get(endpoint)
        if state is not None:
            state.consecutive_failures = 0
            if state.state != CLOSED and TELEMETRY.enabled:
                TELEMETRY.count("breaker_transitions_total",
                                endpoint=endpoint, state=CLOSED)
            state.state = CLOSED

    def record_failure(self, endpoint: str, now: int) -> None:
        state = self._state(endpoint)
        state.consecutive_failures += 1
        if (state.state == HALF_OPEN
                or state.consecutive_failures >= self.threshold):
            state.state = OPEN
            state.open_until = now + self.cooldown
            self.opens += 1
            if TELEMETRY.enabled:
                TELEMETRY.count("breaker_transitions_total",
                                endpoint=endpoint, state=OPEN)

    def state_of(self, endpoint: str) -> str:
        state = self._endpoints.get(endpoint)
        return state.state if state is not None else CLOSED


class RetryPolicy:
    """Exponential backoff + retry budget + per-endpoint breaker.

    One instance per consumer (each collusion network, the milking
    campaign) so breaker state and counters are scoped to that
    consumer's traffic.
    """

    def __init__(self, max_retries: int = 3, base_delay: int = 2,
                 max_delay: int = 300, jitter: float = 0.5,
                 breaker_threshold: int = 8,
                 breaker_cooldown: int = 900) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if base_delay <= 0:
            raise ValueError(f"base_delay must be positive, got {base_delay}")
        if max_delay < base_delay:
            raise ValueError("max_delay must be >= base_delay")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self.max_retries = max_retries
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.jitter = jitter
        self.breaker = CircuitBreaker(threshold=breaker_threshold,
                                      cooldown=breaker_cooldown)
        self.counters: Dict[str, int] = {
            "retries": 0,
            "recoveries": 0,
            "giveups": 0,
            "fast_fails": 0,
            "backoff_seconds": 0,
        }

    # ------------------------------------------------------------------
    # Backoff
    # ------------------------------------------------------------------
    def backoff_delay(self, endpoint: str, key: str, attempt: int,
                      now: int) -> int:
        """Sim-clock delay before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        delay = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        frac = deterministic_jitter(endpoint, key, attempt, now)
        return max(1, int(delay * (1.0 + self.jitter * frac)))

    # ------------------------------------------------------------------
    # Breaker-aware retry loop for synchronous consumers
    # ------------------------------------------------------------------
    def allow(self, endpoint: str, now: int) -> bool:
        """Whether retrying this endpoint is currently worthwhile."""
        if self.breaker.allow(endpoint, now):
            return True
        self.counters["fast_fails"] += 1
        if TELEMETRY.enabled:
            TELEMETRY.count("retry_fast_fails_total", endpoint=endpoint)
        return False

    def retry(self, endpoint: str, key: str, now: int, call, code: str,
              transient=("transient", "timeout")):
        """Retry after an initial transient failure ``code``.

        ``call()`` returns a result code (``None`` = success); it is
        re-invoked while it keeps yielding a code in ``transient`` and
        the retry budget lasts.  Returns the final code.  The breaker
        records an exhausted budget as one failure and any non-transient
        outcome as a success (the endpoint itself answered; the request
        just failed for normal reasons).  While the breaker is open the
        initial code is returned untouched (fail fast).

        Hot callers invoke this only *after* observing a transient code,
        so the fault-free fast path pays nothing for resilience.
        """
        if not self.allow(endpoint, now):
            return code
        counters = self.counters
        for attempt in range(1, self.max_retries + 1):
            delay = self.backoff_delay(endpoint, key, attempt, now)
            counters["retries"] += 1
            counters["backoff_seconds"] += delay
            if TELEMETRY.enabled:
                TELEMETRY.count("retry_attempts_total", endpoint=endpoint)
                TELEMETRY.count("retry_backoff_seconds_total", delay,
                                endpoint=endpoint)
            code = call()
            if code not in transient:
                self.breaker.record_success(endpoint)
                counters["recoveries"] += 1
                if TELEMETRY.enabled:
                    TELEMETRY.count("retry_recoveries_total",
                                    endpoint=endpoint)
                return code
        counters["giveups"] += 1
        self.breaker.record_failure(endpoint, now)
        if TELEMETRY.enabled:
            TELEMETRY.count("retry_giveups_total", endpoint=endpoint)
        return code

    def run(self, endpoint: str, key: str, now: int, call,
            transient=("transient", "timeout")):
        """Convenience wrapper: one call plus :meth:`retry` on demand."""
        code = call()
        if code not in transient:
            return code
        return self.retry(endpoint, key, now, call, code,
                          transient=transient)
