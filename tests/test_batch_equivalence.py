"""Wave delivery must be byte-identical to a per-request reference.

The collusion networks deliver every like and every background charge
through planned delivery waves (``GraphApi.delivery_wave``), with a
token memo and memoized per-(key, wave-timestamp) rate-limit
transitions.  :class:`ScalarWave` is the reference: it has the wave's
interface but admits each entry on its own, through ``GraphApi.execute``
and ``PolicyEnforcer.admit_like``, and shares no code with
``DeliveryWave``, ``LikeWaveAdmitter`` or the token memo.  A study that
opens a ScalarWave wherever the networks open a wave must produce the
exact same request log, rate-limit history and report, fault-free and
under a fault plan that fires every per-request fault kind.
"""

from __future__ import annotations

import hashlib
from functools import partial

import pytest

from repro.core.config import StudyConfig
from repro.experiments import export, runner
from repro.faults.plan import CHARGE_ACTION, FaultPlan, FaultRule
from repro.graphapi.errors import (
    ApiTimeout,
    AppSecretRequiredError,
    BlockedSourceError,
    GraphApiError,
    IpRateLimitError,
    PermissionDeniedError,
    RateLimitExceededError,
    TransientApiError,
)
from repro.graphapi.request import ApiAction, ApiRequest
from repro.oauth.errors import InvalidTokenError
from repro.socialnet.errors import SocialNetworkError

_DELIVERY_ACTIONS = frozenset({"LIKE_POST", CHARGE_ACTION})

#: An actively hostile plan for the fault-equivalence tests: every
#: per-request fault kind on the delivery and charge paths, including
#: mid-flight token invalidation.
FAULT_PLAN = FaultPlan((
    FaultRule(kind="transient", probability=0.01,
              actions=_DELIVERY_ACTIONS),
    FaultRule(kind="timeout", probability=0.005,
              actions=_DELIVERY_ACTIONS),
    FaultRule(kind="rate_limit", probability=0.005,
              actions=_DELIVERY_ACTIONS),
    FaultRule(kind="invalidate_token", probability=0.0005,
              actions=frozenset({"LIKE_POST"})),
))

#: The wave verdict for each exception the per-request pipeline raises.
#: Looked up along the exception's MRO, so ``ApiTimeout`` maps before
#: its base class ``TransientApiError``.
_VERDICTS = {
    InvalidTokenError: "invalid_token",
    ApiTimeout: "timeout",
    TransientApiError: "transient",
    RateLimitExceededError: "token_limit",
    IpRateLimitError: "ip_limit",
    BlockedSourceError: "blocked",
    AppSecretRequiredError: "app_secret",
    PermissionDeniedError: "permission",
    SocialNetworkError: "platform_error",
}

#: Charge-path fault kinds that fail the charge before admission.
_CHARGE_FAULTS = {"transient": "transient", "timeout": "timeout",
                  "rate_limit": "token_limit"}


def _verdict(error: Exception) -> str:
    for kind in type(error).__mro__:
        if kind in _VERDICTS:
            return _VERDICTS[kind]
    raise error


class ScalarWave:
    """``DeliveryWave``'s interface with one admission per entry.

    Nothing is memoized or deferred: ``like`` is one public
    ``GraphApi.like_post`` request, and ``charge`` is ``execute``'s
    like admission without the platform write and the log row.
    """

    def __init__(self, api, post_id=None):
        self.api = api
        self.post_id = post_id

    def like(self, access_token, source_ip):
        try:
            self.api.like_post(access_token, self.post_id,
                               source_ip=source_ip)
        except (InvalidTokenError, GraphApiError,
                SocialNetworkError) as error:
            return _verdict(error)
        return None

    def charge(self, access_token, source_ip=None):
        api = self.api
        if api.faults is not None:
            fault = api.faults.decide(CHARGE_ACTION, access_token)
            if fault in _CHARGE_FAULTS:
                return _CHARGE_FAULTS[fault]
        try:
            token = api.tokens.validate(access_token)
            app = api.apps.get(token.app_id)
            api._check_app_secret(app, ApiRequest(
                ApiAction.LIKE_POST, access_token, source_ip=source_ip))
            api._check_permissions(token, ApiAction.LIKE_POST)
        except (InvalidTokenError, GraphApiError) as error:
            return _verdict(error)
        if api.policy.is_as_blocked(app.app_id,
                                    api._resolve_asn(source_ip)):
            return "blocked"
        violated = api.enforcer.admit_like(access_token, source_ip,
                                           api.clock.now())
        if violated is not None:
            return "token_limit" if violated == "token" else "ip_limit"
        api.charge_counters["likes"] += 1
        return None

    def finish(self):
        """Nothing is pending: every entry took effect as it ran."""


def _log_digest(log) -> str:
    h = hashlib.sha256()
    for r in log.all():
        h.update(repr((r.action.name, r.timestamp, r.token, r.user_id,
                       r.app_id, r.target_id, r.source_ip, r.asn,
                       r.outcome)).encode())
    return h.hexdigest()


def _run_study(reference: bool, fault_plan: FaultPlan = FaultPlan()):
    """Milking and campaign of one seeded study.  With ``reference``
    every wave the networks open is a :class:`ScalarWave`."""
    config = StudyConfig(scale=0.002, seed=13, milking_days=6,
                         campaign_days=12, fault_plan=fault_plan)
    artifacts = runner.build_world(config)
    api = artifacts.world.api
    calls = {"delivery_wave": 0, "like_wave": 0}
    open_wave = partial(ScalarWave, api) if reference else api.delivery_wave
    like_wave = api.enforcer.like_wave

    def counting_delivery_wave(post_id=None):
        calls["delivery_wave"] += 1
        return open_wave(post_id)

    def counting_like_wave(now):
        calls["like_wave"] += 1
        return like_wave(now)

    api.delivery_wave = counting_delivery_wave
    api.enforcer.like_wave = counting_like_wave
    runner.run_milking(artifacts)
    runner.run_campaign(artifacts)
    artifacts.wave_calls = calls
    return artifacts


@pytest.fixture(scope="module")
def batched_artifacts():
    return _run_study(reference=False)


@pytest.fixture(scope="module")
def scalar_artifacts():
    return _run_study(reference=True)


def test_batched_study_matches_scalar_study(batched_artifacts,
                                            scalar_artifacts):
    batched_log = batched_artifacts.world.api.log
    scalar_log = scalar_artifacts.world.api.log
    assert len(batched_log.all()) == len(scalar_log.all())
    assert _log_digest(batched_log) == _log_digest(scalar_log)
    assert (batched_artifacts.world.api.charge_counters
            == scalar_artifacts.world.api.charge_counters)


def test_batched_report_matches_scalar_report(batched_artifacts,
                                              scalar_artifacts):
    batched = runner.run_experiments(batched_artifacts)
    scalar = runner.run_experiments(scalar_artifacts)
    assert batched.render() == scalar.render()
    assert (export.report_to_json(batched)
            == export.report_to_json(scalar))


def _assert_waves_ran(batched, scalar):
    """Non-vacuous and independent: both studies opened the same waves,
    the reference study through ScalarWave alone, so it never reached
    a LikeWaveAdmitter."""
    waves = batched.wave_calls["delivery_wave"]
    assert waves > 0
    assert batched.wave_calls["like_wave"] == waves
    assert scalar.wave_calls == {"delivery_wave": waves, "like_wave": 0}


def test_waves_actually_ran(batched_artifacts, scalar_artifacts):
    _assert_waves_ran(batched_artifacts, scalar_artifacts)


# ----------------------------------------------------------------------
# Equivalence under an active fault plan
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def faulted_batched():
    return _run_study(reference=False, fault_plan=FAULT_PLAN)


@pytest.fixture(scope="module")
def faulted_scalar():
    return _run_study(reference=True, fault_plan=FAULT_PLAN)


def test_faulted_wave_matches_scalar(faulted_batched, faulted_scalar):
    """Transients and timeouts trip retries inside the wave, injected
    rate limits reject entries and mid-flight invalidations kill tokens
    between them — and the wave must still replay the reference
    trajectory byte for byte: same fault decisions, same log rows,
    same charges."""
    batched_world = faulted_batched.world
    scalar_world = faulted_scalar.world
    assert len(batched_world.api.log) == len(scalar_world.api.log)
    assert (_log_digest(batched_world.api.log)
            == _log_digest(scalar_world.api.log))
    assert (batched_world.api.charge_counters
            == scalar_world.api.charge_counters)
    # Identical per-kind fault decisions.
    assert batched_world.faults.counters == scalar_world.faults.counters
    # Per-network RNG streams ended in the same state.
    for domain, network in faulted_batched.ecosystem.networks.items():
        scalar_network = faulted_scalar.ecosystem.networks[domain]
        assert network.rng.getstate() == scalar_network.rng.getstate(), domain


def test_faulted_report_matches_scalar(faulted_batched, faulted_scalar):
    batched = runner.run_experiments(faulted_batched)
    scalar = runner.run_experiments(faulted_scalar)
    assert batched.render() == scalar.render()
    assert (export.report_to_json(batched)
            == export.report_to_json(scalar))


def test_faults_actually_fired(faulted_batched, faulted_scalar):
    # Non-vacuous: every kind in the plan fired, so each of the wave's
    # fault verdicts was compared, and the faulted runs opened waves.
    kinds = {rule.kind for rule in FAULT_PLAN.rules}
    for artifacts in (faulted_batched, faulted_scalar):
        counters = artifacts.world.faults.counters
        assert {kind for kind in kinds if counters.get(kind, 0) > 0} == kinds
    _assert_waves_ran(faulted_batched, faulted_scalar)


def test_delivery_attempts_stay_within_budget(faulted_batched,
                                              faulted_scalar):
    """Attempt accounting regression: a delivery round's ``attempts``
    is bounded by its retry budget and never below ``delivered`` — a
    retried entry counts once.  Both studies left identical state, so
    one further request must also produce field-identical reports."""
    probes = {}
    for name, artifacts in (("wave", faulted_batched),
                            ("scalar", faulted_scalar)):
        domain, network = next(iter(
            artifacts.ecosystem.networks.items()))
        member = network._member_list[0]
        post = artifacts.world.platform.create_post(
            member, "attempt accounting probe")
        report = network.submit_like_request(member, post.post_id)
        budget = max(1, int(report.requested * network.profile.retry_factor))
        assert report.attempts <= budget
        assert report.delivered <= report.attempts
        probes[name] = (domain, report.requested, report.delivered,
                        report.attempts, report.halted)
    assert probes["wave"] == probes["scalar"]
