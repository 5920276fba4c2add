"""Ablation — §8 future work: ML abuse detection vs temporal clustering.

Runs both detectors over the same mixed trace (collusion + organic app
traffic).  Temporal clustering misses the collusion accounts (§6.3);
the feature-based classifier separates them almost perfectly because it
keys on infrastructure (IP co-tenancy, datacenter origin) instead of
timing — the paper's proposed next step, quantified.
"""

from conftest import once
from repro.apps.catalog import AppCatalog
from repro.collusion.ecosystem import build_ecosystem
from repro.collusion.profiles import HTC_SENSE
from repro.core.config import StudyConfig
from repro.core.world import World
from repro.detection.actions import actions_from_request_log
from repro.detection.mlabuse import (
    LogisticAbuseClassifier,
    detect_abusive_tokens,
    extract_token_features,
    train_test_split,
)
from repro.detection.synchrotrap import SynchroTrap
from repro.honeypot.account import create_honeypot
from repro.sim.clock import DAY
from repro.workloads.organic import OrganicWorkload


def _build_trace():
    world = World(StudyConfig(scale=0.004, seed=88))
    AppCatalog(world.apps, world.rng.stream("catalog"),
               tail_apps=0).build()
    ecosystem = build_ecosystem(world, network_limit=2)
    network = ecosystem.network("official-liker.net")
    honeypot = create_honeypot(world, network)
    organic = OrganicWorkload(world, [HTC_SENSE],
                              likes_per_user_per_day=3.0)
    organic.create_users(80)
    for day in range(6):
        for i in range(4):
            post = world.platform.create_post(honeypot.account_id,
                                              f"d{day}p{i}")
            network.submit_like_request(honeypot.account_id,
                                        post.post_id)
        organic.run_day()
        world.clock.advance(DAY)
    colluding = set(network.token_db) | network.dead_members.keys()
    organic_users = {u.account_id for u in organic.users}
    return world, colluding, organic_users


def _evaluate(world, colluding, organic_users):
    # Temporal clustering over the full trace.
    synchrotrap = SynchroTrap(min_cluster_size=10, max_bucket_actors=120)
    st_result = synchrotrap.detect(
        actions_from_request_log(world.api.log))
    st_collusion_recall = (len(st_result.flagged_accounts & colluding)
                           / len(colluding))

    # Feature-based classifier, honest train/test split.
    features = [f for f in extract_token_features(world.api.log)
                if f.user_id in colluding or f.user_id in organic_users]
    labels = [1 if f.user_id in colluding else 0 for f in features]
    train_x, train_y, test_x, test_y = train_test_split(
        features, labels, test_fraction=0.3, seed=9)
    classifier = LogisticAbuseClassifier().fit(train_x, train_y)
    result = detect_abusive_tokens(classifier, test_x)
    positives = {s.token for s, label in zip(test_x, test_y) if label}
    negatives = {s.token for s, label in zip(test_x, test_y) if not label}
    ml_recall = (len(result.flagged_tokens & positives)
                 / max(1, len(positives)))
    ml_false_positive_rate = (len(result.flagged_tokens & negatives)
                              / max(1, len(negatives)))
    return {
        "synchrotrap_collusion_recall": st_collusion_recall,
        "ml_recall": ml_recall,
        "ml_false_positive_rate": ml_false_positive_rate,
    }


def test_bench_ablation_mlabuse(benchmark):
    def run():
        world, colluding, organic_users = _build_trace()
        return _evaluate(world, colluding, organic_users)

    metrics = once(benchmark, run)

    print()
    for key, value in metrics.items():
        print(f"  {key}: {value:.1%}")

    # §6.3 replication: temporal clustering misses the colluders.
    assert metrics["synchrotrap_collusion_recall"] < 0.05
    # §8 proposal: infrastructure features catch them with near-zero
    # collateral damage on organic app users.
    assert metrics["ml_recall"] > 0.9
    assert metrics["ml_false_positive_rate"] < 0.05
