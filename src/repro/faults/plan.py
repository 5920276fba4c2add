"""Deterministic fault plans (§6 resilience experiments).

A :class:`FaultPlan` is a composable list of :class:`FaultRule`\\ s, each
describing *one* failure mode injected into the Graph API data plane:

``transient``
    the request fails with :class:`~repro.graphapi.errors.TransientApiError`
    (Facebook's "please retry" / error code 2 family);
``timeout``
    the request hangs past the client deadline and fails with
    :class:`~repro.graphapi.errors.ApiTimeout`;
``rate_limit``
    a spurious ``rate_limited`` response without the budget actually
    being charged (rate-limit jitter);
``invalidate_token``
    the request's access token is invalidated *mid-flight* (the request
    then fails through the normal ``invalid_token`` path and the token
    stays dead, as in the §6.2 invalidation countermeasure);
``child_crash``
    a forked shard worker SIGKILLs itself partway through its day — the
    :class:`~repro.countermeasures.sharding.ShardSupervisor` must detect
    the death and re-execute the component serially;
``torn_tail``
    the process "loses power" while sealing a journal day: trailing
    bytes are torn off the newest WAL segment and the run aborts with
    :class:`~repro.journal.SimulatedCrash` (the resume path must then
    recover the truncated journal).  Only consulted when a journal is
    attached, so a reference run without ``--journal`` is the
    uninterrupted oracle.

Rules compose: every active, matching rule gets an independent roll per
request, in plan order, and the first hit wins.  Decisions are *keyed*
hashes — ``blake2b(seed | namespace | key | draw#)`` with per-key draw
counters — rather than a single sequential stream, so a decision
depends only on its own subject's history (token, network, day), never
on the global interleaving of other subjects' requests.  That is what
lets a certified shard plan fork fault-injected components: each child
reproduces exactly the draws its own tokens would have seen serially.
The namespace seeds still come from the dedicated ``faults`` RNG
stream, so a fixed plan remains fully deterministic under a fixed
master seed and an absent plan consumes no randomness at all.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.sim.clock import SimClock

#: The failure modes a rule may inject.
FAULT_KINDS = ("transient", "timeout", "rate_limit", "invalidate_token",
               "child_crash", "torn_tail")

#: Pseudo-action key used by the charge-only admission path (there is no
#: ApiAction for it; see DeliveryWave.charge).
CHARGE_ACTION = "CHARGE_LIKE"


@dataclass(frozen=True)
class FaultRule:
    """One failure mode, its probability, window and target predicate.

    ``start_day`` / ``end_day`` bound the rule to simulation days
    (``end_day`` exclusive, ``None`` = forever).  ``actions`` restricts
    the rule to a set of Graph API action names (e.g. ``"LIKE_POST"``,
    ``"COMMENT"``, or :data:`CHARGE_ACTION` for the charge-only path);
    ``None`` matches every action.  ``child_crash`` and ``torn_tail``
    rules ignore ``actions``.
    """

    kind: str
    probability: float
    start_day: int = 0
    end_day: Optional[int] = None
    actions: Optional[FrozenSet[str]] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}")
        if self.start_day < 0:
            raise ValueError(f"start_day must be >= 0, got {self.start_day}")
        if self.end_day is not None and self.end_day <= self.start_day:
            raise ValueError("end_day must be after start_day")
        if self.actions is not None and not isinstance(self.actions,
                                                       frozenset):
            object.__setattr__(self, "actions", frozenset(self.actions))

    def active_on(self, day: int) -> bool:
        if day < self.start_day:
            return False
        return self.end_day is None or day < self.end_day

    def matches(self, action: str) -> bool:
        return self.actions is None or action in self.actions

    def to_dict(self) -> Dict:
        payload: Dict = {"kind": self.kind,
                         "probability": self.probability,
                         "start_day": self.start_day}
        if self.end_day is not None:
            payload["end_day"] = self.end_day
        if self.actions is not None:
            payload["actions"] = sorted(self.actions)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "FaultRule":
        actions = payload.get("actions")
        return cls(kind=payload["kind"],
                   probability=payload["probability"],
                   start_day=payload.get("start_day", 0),
                   end_day=payload.get("end_day"),
                   actions=frozenset(actions) if actions else None)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, composable set of fault rules."""

    rules: Tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.rules, tuple):
            object.__setattr__(self, "rules", tuple(self.rules))

    def __bool__(self) -> bool:
        return bool(self.rules)

    def with_rule(self, rule: FaultRule) -> "FaultPlan":
        return FaultPlan(self.rules + (rule,))

    # ------------------------------------------------------------------
    # Serialization (the CLI's --faults file format)
    # ------------------------------------------------------------------
    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(
            {"rules": [rule.to_dict() for rule in self.rules]},
            indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        rules = payload.get("rules", payload if isinstance(payload, list)
                            else [])
        return cls(tuple(FaultRule.from_dict(r) for r in rules))

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")


class FaultInjector:
    """Binds a :class:`FaultPlan` to a clock, an RNG stream and the
    token store, and answers the Graph API's "does this request fail?"
    questions.

    Decisions are position-independent: every roll hashes a namespace
    seed, the subject key (access token, day or day and network) and a
    per-key draw counter, so a subject's fault trajectory depends only
    on its *own* request history.  Serial and sharded execution — and a
    resumed run that restores the draw counters from a checkpoint —
    therefore produce identical decisions.  Injected faults are tallied
    in :attr:`counters` for the perf instrumentation layer.
    """

    #: The per-day rule caches, left out of the state: they are pure
    #: functions of the immutable plan and the queried day, rebuilt on
    #: first use after a resume.
    _TRANSIENT = ("_cached_day", "_scalar_rules", "_crash_rules",
                  "_torn_rules")

    def __init__(self, plan: FaultPlan, rng: random.Random,
                 clock: SimClock, tokens=None) -> None:
        self.plan = plan
        self.rng = rng
        self.clock = clock
        self.tokens = tokens
        self.counters: Dict[str, int] = {}
        # Namespace seeds, derived once from the dedicated fault stream
        # (fixed draw order => reproducible under a fixed master seed).
        self._seeds: Dict[str, int] = {
            "s": rng.getrandbits(64),
            "crash": rng.getrandbits(64),
            "torn": rng.getrandbits(64),
        }
        #: Draw counters keyed by (namespace, subject key).
        self._draws: Dict[Tuple[str, str], int] = {}
        #: Invalidations performed by this injector, in decision order —
        #: shard children export the day's suffix so the parent can
        #: replay them against its own token store.
        self.invalidations: List[Tuple[str, str]] = []
        # Per-day active-rule cache, split by decision surface so the
        # hot paths only scan what can match them.
        self._cached_day = -1
        self._scalar_rules: List[FaultRule] = []
        self._crash_rules: List[FaultRule] = []
        self._torn_rules: List[FaultRule] = []

    def _refresh(self, day: int) -> None:
        self._cached_day = day
        scalar: List[FaultRule] = []
        crash: List[FaultRule] = []
        torn: List[FaultRule] = []
        buckets = {"child_crash": crash, "torn_tail": torn}
        for rule in self.plan.rules:
            if not rule.active_on(day):
                continue
            buckets.get(rule.kind, scalar).append(rule)
        self._scalar_rules = scalar
        self._crash_rules = crash
        self._torn_rules = torn

    def _count(self, kind: str) -> None:
        self.counters[kind] = self.counters.get(kind, 0) + 1

    def _draw(self, namespace: str, key: str) -> float:
        """One keyed uniform draw in ``[0, 1)``, advancing the key's
        counter."""
        draw_key = (namespace, key)
        count = self._draws.get(draw_key, 0)
        self._draws[draw_key] = count + 1
        digest = hashlib.blake2b(
            f"{self._seeds[namespace]}|{namespace}|{key}|{count}".encode(),
            digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0 ** 64

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def decide(self, action: str, access_token: str) -> Optional[str]:
        """Roll every matching scalar rule for one request.

        Returns the injected fault kind or ``None``.  A winning
        ``invalidate_token`` rule *performs* the invalidation here (the
        caller then proceeds and fails through the normal
        ``invalid_token`` machinery, exactly like the §6.2 ladder).
        """
        day = self.clock.day()
        if day != self._cached_day:
            self._refresh(day)
        for rule in self._scalar_rules:
            if rule.actions is not None and action not in rule.actions:
                continue
            if self._draw("s", access_token) >= rule.probability:
                continue
            kind = rule.kind
            self._count(kind)
            if kind == "invalidate_token" and self.tokens is not None:
                token = self.tokens.peek(access_token)
                if token is not None and not token.invalidated:
                    self.tokens.invalidate(access_token,
                                           reason="fault_injection")
                    self.invalidations.append(
                        (access_token, "fault_injection"))
            return kind
        return None

    def decide_child_crash(self, day: int, domain: str,
                           n_events: int) -> Optional[int]:
        """Whether the shard child for ``domain`` crashes on ``day``.

        Decided in the *parent* before forking (so the tally survives
        the child's death) and shipped into the child, which executes
        the returned number of events and then SIGKILLs itself.  The
        supervisor's serial re-execution never consults this decision,
        so the recovered day converges to the no-crash trajectory.
        """
        if day != self._cached_day:
            self._refresh(day)
        if not self._crash_rules:
            return None
        key = f"{day}|{domain}"
        for rule in self._crash_rules:
            if self._draw("crash", key) >= rule.probability:
                continue
            self._count("child_crash")
            cut = self._draw("crash", key + "|cut")
            return max(1, int(cut * max(n_events, 1)))
        return None

    def decide_torn_tail(self, day: int) -> Optional[int]:
        """Bytes to tear off the journal tail while sealing ``day``
        (``None`` = no crash).  Consulted only when a journal is
        attached; the recovery layer fires it at most once per journal
        lifetime so a resumed run cannot crash-loop on the same draw.
        """
        if day != self._cached_day:
            self._refresh(day)
        if not self._torn_rules:
            return None
        for rule in self._torn_rules:
            if self._draw("torn", str(day)) >= rule.probability:
                continue
            self._count("torn_tail")
            spread = self._draw("torn", f"{day}|bytes")
            return 1 + int(spread * 96)
        return None

    # ------------------------------------------------------------------
    # State transfer (sharding deltas and campaign checkpoints)
    # ------------------------------------------------------------------
    def mark(self) -> Dict:
        """Decision tallies, draw counters and the invalidation count."""
        return {"counters": dict(self.counters),
                "draws": dict(self._draws),
                "invalidations": len(self.invalidations)}

    def export_delta(self, mark: Dict) -> Dict:
        """What this injector decided since ``mark`` — picklable, and
        safe to apply in another process whose subjects are disjoint
        from every other delta's."""
        mark_counters = mark["counters"]
        mark_draws = mark["draws"]
        return {
            "counters": {kind: count - mark_counters.get(kind, 0)
                         for kind, count in self.counters.items()
                         if count != mark_counters.get(kind, 0)},
            "draws": {key: count
                      for key, count in self._draws.items()
                      if count != mark_draws.get(key)},
            "invalidated": self.invalidations[mark["invalidations"]:],
        }

    def apply_delta(self, delta: Dict) -> None:
        """Merge an :meth:`export_delta` in, replaying its token
        invalidations against this process's store (a shard child's
        are new to the parent; a checkpoint's token part has already
        flipped them)."""
        for kind, count in delta["counters"].items():
            self.counters[kind] = self.counters.get(kind, 0) + count
        self._draws.update(delta["draws"])
        for access_token, reason in delta["invalidated"]:
            self.invalidations.append((access_token, reason))
            if self.tokens is not None:
                token = self.tokens.peek(access_token)
                if token is not None and not token.invalidated:
                    self.tokens.invalidate(access_token, reason=reason)

    def total_injected(self) -> int:
        return sum(self.counters.values())


# ----------------------------------------------------------------------
# Convenience plan builders
# ----------------------------------------------------------------------
def transient_plan(probability: float = 0.05,
                   actions: Optional[Sequence[str]] = None) -> FaultPlan:
    """A flat transient-error plan (the acceptance-criteria workload)."""
    return FaultPlan((FaultRule(
        kind="transient", probability=probability,
        actions=frozenset(actions) if actions else None),))


def chaos_plan(transient: float = 0.05, timeout: float = 0.01,
               rate_limit: float = 0.01,
               invalidate: float = 0.001) -> FaultPlan:
    """Every failure mode at once — the chaos-smoke configuration."""
    rules = []
    if transient > 0:
        rules.append(FaultRule(kind="transient", probability=transient))
    if timeout > 0:
        rules.append(FaultRule(kind="timeout", probability=timeout))
    if rate_limit > 0:
        rules.append(FaultRule(kind="rate_limit", probability=rate_limit))
    if invalidate > 0:
        rules.append(FaultRule(kind="invalidate_token",
                               probability=invalidate))
    return FaultPlan(tuple(rules))
