"""Tests for the organic workload and the ML abuse detector (§8)."""

import pytest

from repro.collusion.profiles import HTC_SENSE
from repro.detection.mlabuse import (
    FEATURE_NAMES,
    LogisticAbuseClassifier,
    detect_abusive_tokens,
    extract_token_features,
    train_test_split,
)
from repro.workloads.organic import OrganicWorkload


@pytest.fixture(scope="module")
def mixed_traffic():
    """A world with both collusion and organic like traffic."""
    from repro.apps.catalog import AppCatalog
    from repro.collusion.ecosystem import build_ecosystem
    from repro.core.config import StudyConfig
    from repro.core.world import World
    from repro.honeypot.account import create_honeypot
    from repro.sim.clock import DAY

    w = World(StudyConfig(scale=0.004, seed=23))
    AppCatalog(w.apps, w.rng.stream("catalog"), tail_apps=0).build()
    eco = build_ecosystem(w, network_limit=2)
    network = eco.network("official-liker.net")
    honeypot = create_honeypot(w, network)
    organic = OrganicWorkload(w, [HTC_SENSE],
                              likes_per_user_per_day=3.0)
    organic.create_users(60)
    for day in range(5):
        for i in range(4):
            post = w.platform.create_post(honeypot.account_id,
                                          f"d{day}p{i}")
            network.submit_like_request(honeypot.account_id,
                                        post.post_id)
        organic.run_day()
        w.clock.advance(DAY)
    colluding_users = set(network.token_db) | network.dead_members.keys()
    organic_users = {u.account_id for u in organic.users}
    return w, colluding_users, organic_users


def test_organic_users_like_from_home_ips(mixed_traffic):
    w, colluding, organic_users = mixed_traffic
    records = [r for r in w.api.log.like_requests()
               if r.user_id in organic_users]
    assert records
    assert all(r.source_ip.startswith("10.200.") for r in records)
    assert all(r.asn is None for r in records)


def test_feature_extraction_shapes(mixed_traffic):
    w, colluding, organic_users = mixed_traffic
    features = extract_token_features(w.api.log)
    assert features
    sample = features[0]
    assert len(sample.vector()) == len(FEATURE_NAMES)
    for f in features:
        assert f.likes_per_day > 0
        assert 0 <= f.datacenter_share <= 1
        assert 0 < f.target_owner_diversity <= 1


def test_cotenancy_separates_populations(mixed_traffic):
    w, colluding, organic_users = mixed_traffic
    features = extract_token_features(w.api.log)
    collusion_cotenancy = [f.max_ip_cotenancy for f in features
                           if f.user_id in colluding]
    organic_cotenancy = [f.max_ip_cotenancy for f in features
                         if f.user_id in organic_users]
    assert collusion_cotenancy and organic_cotenancy
    assert min(collusion_cotenancy) > max(organic_cotenancy)


def test_classifier_learns_separation(mixed_traffic):
    w, colluding, organic_users = mixed_traffic
    features = [f for f in extract_token_features(w.api.log)
                if f.user_id in colluding or f.user_id in organic_users]
    labels = [1 if f.user_id in colluding else 0 for f in features]
    train_x, train_y, test_x, test_y = train_test_split(
        features, labels, test_fraction=0.3, seed=1)
    classifier = LogisticAbuseClassifier().fit(train_x, train_y)
    correct = sum(
        1 for sample, label in zip(test_x, test_y)
        if classifier.predict(sample) == bool(label))
    assert correct / len(test_x) > 0.95


def test_detect_abusive_tokens_flags_colluders_not_organics(mixed_traffic):
    w, colluding, organic_users = mixed_traffic
    features = [f for f in extract_token_features(w.api.log)
                if f.user_id in colluding or f.user_id in organic_users]
    labels = [1 if f.user_id in colluding else 0 for f in features]
    classifier = LogisticAbuseClassifier().fit(features, labels)
    result = detect_abusive_tokens(classifier, features)
    organic_flagged = result.flagged_users & organic_users
    colluding_flagged = result.flagged_users & colluding
    assert len(organic_flagged) <= 0.02 * len(organic_users)
    assert len(colluding_flagged) > 0.9 * len(
        {f.user_id for f in features if f.user_id in colluding})


def test_classifier_guards():
    classifier = LogisticAbuseClassifier()
    with pytest.raises(ValueError):
        classifier.fit([], [])
    with pytest.raises(RuntimeError):
        from repro.detection.mlabuse import TokenFeatures

        classifier.predict_proba(TokenFeatures(
            "t", "u", 1.0, 1, 1, 0.0, 1.0))


def test_train_test_split_validation():
    with pytest.raises(ValueError):
        train_test_split([], [], test_fraction=1.5)


def test_organic_workload_validation(world):
    with pytest.raises(ValueError):
        OrganicWorkload(world, [])
