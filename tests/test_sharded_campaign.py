"""Per-network sharded campaign execution vs the serial path.

The sharded day executor (``repro.countermeasures.sharding``) forks one
worker per certified network component and merges the children's deltas
back at the day boundary.  For a certified plan the merged trajectory
must be *byte-identical* to the serial one — same request log, activity
log, limiter windows, per-network RNG streams and daily series.  For an
ineligible plan (the paper's default app-sharing ecosystem or outgoing
background traffic) the campaign must fall back to the serial path and
say why.  An active fault plan does not block sharding: fault decisions
are keyed per subject, so a faulted plan shards and stays identical.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.apps.catalog import AppCatalog
from repro.collusion.ecosystem import build_ecosystem
from repro.core.config import StudyConfig
from repro.core.world import World
from repro.countermeasures.campaign import (
    CampaignConfig,
    CountermeasureCampaign,
)
from repro.countermeasures.sharding import ShardSupervisor, plan_shards
from repro.faults.plan import FaultPlan, FaultRule

#: The only app-distinct (hence token- and window-disjoint) pair among
#: the built profiles: fb-autolikers.com runs on NOKIA_ACCOUNT and
#: autolike.vn on PAGE_MANAGER_IOS, while everything else shares
#: HTC_SENSE.
DISJOINT = ("fb-autolikers.com", "autolike.vn")
SCALE = 0.004


def _run(shards, *, networks=DISJOINT, outgoing=0.0, fault_plan=None,
         seed=31):
    world = World(StudyConfig(scale=SCALE, seed=seed,
                              fault_plan=fault_plan or FaultPlan()))
    AppCatalog(world.apps, world.rng.stream("catalog"), tail_apps=0).build()
    ecosystem = build_ecosystem(world, build_membership=False,
                                network_limit=13)
    for domain in networks:
        network = ecosystem.network(domain)
        network.build_membership(network.profile.pool_size(SCALE))
    config = CampaignConfig.compressed(
        12, networks=networks, outgoing_per_hour=outgoing, shards=shards,
        hublaa_outage=None)
    campaign = CountermeasureCampaign(world, ecosystem, config)
    results = campaign.run()
    return world, ecosystem, results


def _log_digest(log) -> str:
    return hashlib.sha256(repr(log.export_rows(0)).encode()).hexdigest()


def _activity_digest(platform) -> str:
    by_actor = platform.activity_log._by_actor
    flat = [(actor, [(r.verb, r.target_id, r.target_kind, r.created_at,
                      r.via_app_id, r.source_ip) for r in records])
            for actor, records in sorted(by_actor.items())]
    return hashlib.sha256(repr(flat).encode()).hexdigest()


def _limiter_state(world):
    limiter = world.api.enforcer._token_limiter
    return sorted((key, tuple(events),
                   limiter._saturated_until.get(key))
                  for key, events in limiter._events.items())


def _network_state(ecosystem, domain):
    network = ecosystem.network(domain)
    return (network.rng.getstate(),
            sorted(network.token_db.items()),
            sorted(network.dead_members),
            list(network._member_list),
            network.total_likes_delivered,
            network.total_requests_served)


def _assert_byte_identical(serial, sharded, networks=DISJOINT):
    world_a, eco_a, res_a = serial
    world_b, eco_b, res_b = sharded
    assert len(world_a.api.log) == len(world_b.api.log)
    assert _log_digest(world_a.api.log) == _log_digest(world_b.api.log)
    assert (_activity_digest(world_a.platform)
            == _activity_digest(world_b.platform))
    assert len(world_a.platform.activity_log) == len(
        world_b.platform.activity_log)
    assert _limiter_state(world_a) == _limiter_state(world_b)
    assert world_a.api.charge_counters == world_b.api.charge_counters
    assert world_a.tokens._counter == world_b.tokens._counter
    for domain in networks:
        assert _network_state(eco_a, domain) == _network_state(
            eco_b, domain), domain
        assert (res_a.series[domain].posts_per_day
                == res_b.series[domain].posts_per_day)
        assert (res_a.series[domain].likes_per_day
                == res_b.series[domain].likes_per_day)
    assert res_a.interventions == res_b.interventions


@pytest.fixture(scope="module")
def serial_run():
    return _run(shards=1)


@pytest.fixture(scope="module")
def sharded_run():
    return _run(shards=2)


def test_disjoint_networks_shard_into_two_components(sharded_run):
    _world, _eco, results = sharded_run
    plan = results.shard_plan
    assert plan is not None
    assert plan.eligible
    assert plan.effective_shards == 2
    assert sorted(c[0] for c in plan.components) == sorted(DISJOINT)
    assert plan.conflicts == []


def test_sharded_day_is_byte_identical_to_serial(serial_run, sharded_run):
    _assert_byte_identical(serial_run, sharded_run)
    # Non-vacuous: the serial run must not have produced a plan at all
    # (shards=1 never plans), while the sharded one certified two.
    assert serial_run[2].shard_plan is None
    assert sharded_run[2].shard_plan.effective_shards == 2


def test_default_ecosystem_is_ineligible_and_reports_why():
    """The paper's focal networks share an app (and, after milking,
    hundreds of live tokens) — the planner must refuse to shard them."""
    world = World(StudyConfig(scale=SCALE, seed=7))
    AppCatalog(world.apps, world.rng.stream("catalog"), tail_apps=0).build()
    ecosystem = build_ecosystem(world, network_limit=2)
    networks = {d: ecosystem.network(d)
                for d in ("hublaa.me", "official-liker.net")}
    plan = plan_shards(networks, outgoing_per_hour=0.0,
                       requested_shards=2)
    assert not plan.eligible
    assert plan.effective_shards == 1
    assert len(plan.components) == 1
    assert plan.conflicts, "expected a recorded app/token conflict"
    assert plan.conflicts[0].shared_app is not None
    assert any("one component" in blocker for blocker in plan.blockers)
    assert "shared" in plan.describe()


def test_outgoing_traffic_blocks_sharding():
    """Outgoing background activity allocates global post ids mid-day;
    the planner must force the serial path even for disjoint networks."""
    world = World(StudyConfig(scale=SCALE, seed=7))
    AppCatalog(world.apps, world.rng.stream("catalog"), tail_apps=0).build()
    ecosystem = build_ecosystem(world, build_membership=False,
                                network_limit=13)
    networks = {d: ecosystem.network(d) for d in DISJOINT}
    plan = plan_shards(networks, outgoing_per_hour=7.0,
                       requested_shards=2)
    assert len(plan.components) == 2
    assert not plan.eligible
    assert any("outgoing" in blocker for blocker in plan.blockers)


def test_fault_plan_shards_and_stays_byte_identical():
    """An active fault plan no longer blocks sharding: fault decisions
    are keyed per-subject hashes, so forked components reproduce
    exactly the draws their own tokens would have seen serially and the
    merged day stays byte-identical to the serial oracle."""
    plan = FaultPlan((
        FaultRule(kind="transient", probability=0.02,
                  actions=frozenset({"LIKE_POST", "CHARGE_LIKE"})),
        FaultRule(kind="invalidate_token", probability=0.001,
                  actions=frozenset({"LIKE_POST"})),
    ))
    serial = _run(shards=1, fault_plan=plan, seed=47)
    sharded = _run(shards=2, fault_plan=plan, seed=47)
    shard_plan = sharded[2].shard_plan
    assert shard_plan is not None
    assert shard_plan.eligible
    assert shard_plan.effective_shards == 2
    assert not any("fault" in blocker for blocker in shard_plan.blockers)
    _assert_byte_identical(serial, sharded)
    # The fault stream actually fired in both runs, with the same tally
    # (the equivalence is not vacuous).
    assert serial[0].faults is not None
    assert serial[0].faults.total_injected() > 0
    assert (serial[0].faults.counters
            == sharded[0].faults.counters)
    # Invalidation decision order interleaves globally in the serial run
    # but per-component in the merge; the *set* must match exactly.
    assert (sorted(serial[0].faults.invalidations)
            == sorted(sharded[0].faults.invalidations))


def test_shard_plan_describe_lists_components_conflicts_and_blockers():
    """ShardPlan.describe() is the operator's fallback explanation: it
    must name every component, conflict, and blocker verbatim."""
    from repro.countermeasures.sharding import ShardConflict, ShardPlan

    plan = ShardPlan(
        components=[("a.com",), ("b.com",)],
        conflicts=[ShardConflict(a="a.com", b="b.com",
                                 shared_app="app-1", shared_tokens=3)],
        blockers=["outgoing background traffic active"])
    assert not plan.eligible
    assert plan.effective_shards == 1
    text = plan.describe()
    assert "serial fallback" in text
    assert "a.com" in text and "b.com" in text
    assert "app app-1" in text and "3 tokens" in text
    assert "blocked: outgoing background traffic active" in text

    eligible = ShardPlan(components=[("a.com",), ("b.com",)])
    assert eligible.eligible
    assert eligible.effective_shards == 2
    assert "eligible" in eligible.describe()
    assert "blocked" not in eligible.describe()


def test_sigkilled_shard_child_is_quarantined_and_reexecuted():
    """A child_crash fault SIGKILLs forked workers partway through their
    day; the supervisor must detect the deaths, quarantine the deltas,
    re-execute the components serially, and still merge every day
    byte-identical to the serial oracle."""
    plan = FaultPlan((
        FaultRule(kind="child_crash", probability=0.2),
    ))
    serial = _run(shards=1, fault_plan=plan, seed=31)
    sharded = _run(shards=2, fault_plan=plan, seed=31)
    # Non-vacuous: at least one child actually died on SIGKILL and was
    # recorded; the serial oracle never consults the crash rules.
    failures = sharded[2].shard_failures
    assert failures
    assert any("signal 9" in failure for failure in failures)
    assert all("re-executed serially" in failure for failure in failures)
    assert serial[2].shard_failures == []
    assert sharded[0].faults.counters.get("child_crash", 0) > 0
    _assert_byte_identical(serial, sharded)


def test_a_delta_for_another_component_is_quarantined(serial_run,
                                                     monkeypatch):
    """A delta naming another component (a stale or crossed pipe
    payload) must be quarantined and its component re-executed in the
    parent, never merged as foreign state."""
    run_component = ShardSupervisor.run_component

    def crossed(self, campaign, component, *args, **kwargs):
        delta = run_component(self, campaign, component, *args, **kwargs)
        if delta is not None and component == ("fb-autolikers.com",):
            delta = dataclasses.replace(delta,
                                        domains=("elsewhere.example",))
        return delta

    monkeypatch.setattr(ShardSupervisor, "run_component", crossed)
    sharded = _run(shards=2)
    failures = sharded[2].shard_failures
    assert failures
    assert all("shipped a delta for component ('elsewhere.example',)"
               in failure for failure in failures)
    _assert_byte_identical(serial_run, sharded)
