"""Deterministic fault injection and resilience primitives.

``repro.faults`` makes the §6 countermeasure experiments honest about
failure: a seeded :class:`FaultPlan` injects transient Graph API errors,
timeouts, rate-limit jitter and mid-flight token invalidations at the
:class:`~repro.graphapi.api.GraphApi` choke points (and crashed shard
workers and torn journal tails in the campaign runtime), while
:class:`RetryPolicy` / :class:`CircuitBreaker` give the consumers
(collusion delivery loops, the honeypot milker) the retrying,
backing-off behaviour the paper observed in real collusion networks.

Everything is deterministic under a fixed seed: an empty plan consumes
no randomness (byte-identical to a run without the subsystem), and a
fixed plan reproduces the same faults, retries and reports on every
run.
"""

from repro.faults.plan import (
    CHARGE_ACTION,
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultRule,
    chaos_plan,
    transient_plan,
)
from repro.faults.retry import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    RetryPolicy,
    deterministic_jitter,
)

__all__ = [
    "CHARGE_ACTION",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "chaos_plan",
    "transient_plan",
    "CircuitBreaker",
    "RetryPolicy",
    "deterministic_jitter",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
]
