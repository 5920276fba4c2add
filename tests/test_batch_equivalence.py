"""Wave delivery must be byte-identical to the scalar path.

The collusion networks deliver likes through planned delivery waves
(``GraphApi.delivery_wave``) with memoized per-(key, wave-timestamp)
rate-limit transitions; a study run with batching disabled walks the
scalar per-request path instead, so both runs must produce the exact
same request log, rate-limit history and report.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import StudyConfig
from repro.experiments import export, runner
from repro.faults.plan import FaultPlan, FaultRule

#: An actively hostile plan for the fault-equivalence tests: transient
#: errors on the delivery and charge paths and occasional mid-flight
#: token invalidation.
FAULT_PLAN = FaultPlan((
    FaultRule(kind="transient", probability=0.01,
              actions=frozenset({"LIKE_POST", "CHARGE_LIKE"})),
    FaultRule(kind="invalidate_token", probability=0.0005,
              actions=frozenset({"LIKE_POST"})),
))


def _log_digest(log) -> str:
    h = hashlib.sha256()
    for r in log.all():
        h.update(repr((r.action.name, r.timestamp, r.token, r.user_id,
                       r.app_id, r.target_id, r.source_ip, r.asn,
                       r.outcome)).encode())
    return h.hexdigest()


def _run_study(batching: bool, fault_plan: FaultPlan = FaultPlan()):
    config = StudyConfig(scale=0.002, seed=13, milking_days=6,
                         campaign_days=12, fault_plan=fault_plan)
    artifacts = runner.build_world(config)
    for network in artifacts.ecosystem.networks.values():
        network.batch_requests_enabled = batching
    api = artifacts.world.api
    calls = {"delivery_wave": 0}
    original_delivery_wave = api.delivery_wave

    def counting_delivery_wave(post_id=None):
        calls["delivery_wave"] += 1
        return original_delivery_wave(post_id)

    api.delivery_wave = counting_delivery_wave
    runner.run_milking(artifacts)
    runner.run_campaign(artifacts)
    artifacts.wave_calls = calls
    return artifacts


@pytest.fixture(scope="module")
def batched_artifacts():
    return _run_study(batching=True)


@pytest.fixture(scope="module")
def scalar_artifacts():
    return _run_study(batching=False)


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


def test_waves_actually_ran(batched_artifacts, scalar_artifacts):
    # Guard against the wave path silently never engaging (which would
    # make the equivalence assertions vacuous).
    assert batched_artifacts.wave_calls["delivery_wave"] > 0
    assert scalar_artifacts.wave_calls["delivery_wave"] == 0


# ----------------------------------------------------------------------
# Equivalence under an active fault plan
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def faulted_batched():
    return _run_study(batching=True, fault_plan=FAULT_PLAN)


@pytest.fixture(scope="module")
def faulted_scalar():
    return _run_study(batching=False, fault_plan=FAULT_PLAN)


def test_faulted_wave_matches_scalar(faulted_batched, faulted_scalar):
    """Transients trip retries inside the wave and mid-flight
    invalidations kill tokens between its entries — and the wave path
    must still replay the scalar trajectory byte for byte: same fault
    decisions, same log rows, same charges."""
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
    # Non-vacuous: the plan injected faults in both runs, and the
    # faulted batched run delivered through waves.
    assert faulted_scalar.world.faults.total_injected() > 0
    assert faulted_batched.world.faults.counters.get("transient", 0) > 0
    assert faulted_batched.wave_calls["delivery_wave"] > 0


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
