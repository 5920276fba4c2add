"""Ablation — three detector families on the same collusion trace.

Head-to-head over identical mixed traffic (collusion likes + organic app
users):

* SynchroTrap temporal clustering — the §6.3 deployment (evaded);
* PCA residual anomaly detection — the §7.3 prior-work baseline
  (evaded by low per-account volume mixed with normal rhythm);
* feature-based ML classifier — the §8 proposal (succeeds on
  infrastructure features).
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
from repro.detection.pca_anomaly import (
    PcaAnomalyDetector,
    account_daily_vectors,
)
from repro.detection.synchrotrap import SynchroTrap
from repro.honeypot.account import create_honeypot
from repro.sim.clock import DAY
from repro.workloads.organic import OrganicWorkload

DAYS = 10


def _build():
    world = World(StudyConfig(scale=0.004, seed=99))
    AppCatalog(world.apps, world.rng.stream("catalog"),
               tail_apps=0).build()
    ecosystem = build_ecosystem(world, network_limit=2)
    network = ecosystem.network("official-liker.net")
    honeypot = create_honeypot(world, network)
    organic = OrganicWorkload(world, [HTC_SENSE],
                              likes_per_user_per_day=3.0)
    organic.create_users(80)
    for day in range(DAYS):
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


def _recalls(world, colluding, organic_users):
    actions = actions_from_request_log(world.api.log)

    # SynchroTrap.
    st = SynchroTrap(min_cluster_size=10, max_bucket_actors=120)
    st_flagged = st.detect(actions).flagged_accounts
    st_recall = len(st_flagged & colluding) / len(colluding)

    # PCA anomaly detection: train on organic, score everyone.
    vectors = account_daily_vectors(actions, DAYS)
    organic_vectors = [vectors[u] for u in organic_users if u in vectors]
    pca = PcaAnomalyDetector().fit(organic_vectors)
    pca_result = pca.detect(
        {a: v for a, v in vectors.items() if a in colluding})
    pca_recall = len(pca_result.flagged_accounts) / len(colluding)

    # Feature-based classifier (held-out split).
    features = [f for f in extract_token_features(world.api.log)
                if f.user_id in colluding or f.user_id in organic_users]
    labels = [1 if f.user_id in colluding else 0 for f in features]
    train_x, train_y, test_x, test_y = train_test_split(
        features, labels, test_fraction=0.3, seed=4)
    classifier = LogisticAbuseClassifier().fit(train_x, train_y)
    flagged = detect_abusive_tokens(classifier, test_x).flagged_tokens
    positives = {s.token for s, label in zip(test_x, test_y) if label}
    ml_recall = len(flagged & positives) / max(1, len(positives))
    return {"synchrotrap": st_recall, "pca": pca_recall,
            "ml_features": ml_recall}


def test_bench_ablation_detectors(benchmark):
    def run():
        world, colluding, organic_users = _build()
        return _recalls(world, colluding, organic_users)

    recalls = once(benchmark, run)

    print()
    for name, recall in recalls.items():
        print(f"  {name:<12} collusion recall: {recall:6.1%}")

    # Timing- and volume-based detectors barely touch the colluders...
    assert recalls["synchrotrap"] < 0.05
    assert recalls["pca"] < 0.20
    # ...while infrastructure features catch nearly all of them.
    assert recalls["ml_features"] > 0.9
    assert recalls["ml_features"] > 4 * max(recalls["synchrotrap"],
                                            recalls["pca"])
