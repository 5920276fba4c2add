"""Tests for the collusion network engine."""

import pytest

from repro.sim.clock import DAY


@pytest.fixture(scope="module")
def built(request):
    """A small built ecosystem shared within this module."""
    from repro.apps.catalog import AppCatalog
    from repro.collusion.ecosystem import build_ecosystem
    from repro.core.config import StudyConfig
    from repro.core.world import World

    w = World(StudyConfig(scale=0.004, seed=13))
    AppCatalog(w.apps, w.rng.stream("catalog"), tail_apps=0).build()
    eco = build_ecosystem(w, network_limit=3)
    return w, eco


def test_membership_built_to_calibrated_pool(built):
    w, eco = built
    hublaa = eco.network("hublaa.me")
    assert hublaa.member_count() == hublaa.profile.pool_size(0.004)


def test_join_stores_token(built):
    w, eco = built
    net = eco.network("hublaa.me")
    user = w.platform.register_account("Joiner")
    member = net.join(user.account_id)
    assert member == user.account_id
    token = net.token_db[member]
    assert w.tokens.validate(token).user_id == member


def test_membership_grants_carry_the_token_in_the_redirect_fragment():
    # Bulk recruits take the token from the structured grant, not from
    # the redirect URL.  Every grant of every network's app must still
    # be a real implicit-flow redirect whose fragment holds the token
    # the network stored.
    from repro.apps.catalog import AppCatalog
    from repro.collusion.ecosystem import build_ecosystem
    from repro.collusion.profiles import MILKED_PROFILES
    from repro.core.config import StudyConfig
    from repro.core.world import World

    w = World(StudyConfig(scale=0.002, seed=5))
    AppCatalog(w.apps, w.rng.stream("catalog"), tail_apps=0).build()
    grants = {}
    authorize = w.auth_server.authorize

    def recording_authorize(request, user_id):
        result = authorize(request, user_id)
        grants[(user_id, request.app_id)] = result
        return result

    w.auth_server.authorize = recording_authorize
    eco = build_ecosystem(w)
    assert len(eco.networks) == len(MILKED_PROFILES)
    for net in eco.networks.values():
        assert net.token_db
        for member, token in net.token_db.items():
            result = grants[(member, net.app.app_id)]
            assert result.token_from_fragment() == result.access_token.token
            assert result.access_token.token == token
            assert result.redirect_url.startswith(
                net.app.redirect_uri + "#access_token=")


def test_join_reuses_live_token_across_networks(built):
    w, eco = built
    a = eco.network("hublaa.me")
    b = eco.network("official-liker.net")
    assert a.profile.app_id == b.profile.app_id  # both HTC Sense
    user = w.platform.register_account("DoubleAgent")
    a.join(user.account_id)
    b.join(user.account_id)
    assert a.token_db[user.account_id] == b.token_db[user.account_id]


def test_like_request_delivers_quota(built):
    w, eco = built
    net = eco.network("hublaa.me")
    hp = w.platform.register_account("HP", is_honeypot=True)
    net.join(hp.account_id)
    post = w.platform.create_post(hp.account_id, "x")
    report = net.submit_like_request(hp.account_id, post.post_id)
    assert report.delivered == net.profile.likes_per_request
    fetched = w.platform.get_post(post.post_id)
    assert fetched.like_count == report.delivered
    # All likers are distinct members, not the requester.
    likers = fetched.liker_ids()
    assert hp.account_id not in likers
    assert len(set(likers)) == len(likers)


def test_likes_attributed_to_exploited_app_and_pool_ips(built):
    w, eco = built
    net = eco.network("hublaa.me")
    hp = w.platform.register_account("HP2", is_honeypot=True)
    net.join(hp.account_id)
    post = w.platform.create_post(hp.account_id, "x")
    net.submit_like_request(hp.account_id, post.post_id)
    pool = set(net.ip_pool.addresses)
    for like in w.platform.get_post(post.post_id).likes:
        assert like.via_app_id == net.profile.app_id
        assert like.source_ip in pool


def test_non_member_cannot_request(built):
    w, eco = built
    net = eco.network("hublaa.me")
    outsider = w.platform.register_account("Outsider")
    post = w.platform.create_post(outsider.account_id, "x")
    with pytest.raises(PermissionError):
        net.submit_like_request(outsider.account_id, post.post_id)


def test_daily_request_limit(built):
    w, eco = built
    net = eco.network("mg-likers.com")
    # mg-likers has no daily limit; emulate djliker's via the profile of
    # a fresh honeypot on a limited network if built, else skip.
    assert net.profile.daily_request_limit is None


def test_comment_request(built):
    w, eco = built
    net = eco.network("mg-likers.com")
    hp = w.platform.register_account("HP3", is_honeypot=True)
    net.join(hp.account_id)
    post = w.platform.create_post(hp.account_id, "x")
    report = net.submit_comment_request(hp.account_id, post.post_id)
    assert report.delivered == net.profile.comments_per_post
    comments = w.platform.get_post(post.post_id).comments
    assert len(comments) == report.delivered
    dictionary = set(net.comment_dictionary.comments)
    assert all(c.text in dictionary for c in comments)


def test_comment_request_without_service(built):
    w, eco = built
    net = eco.network("hublaa.me")
    hp = w.platform.register_account("HP4", is_honeypot=True)
    net.join(hp.account_id)
    post = w.platform.create_post(hp.account_id, "x")
    with pytest.raises(PermissionError):
        net.submit_comment_request(hp.account_id, post.post_id)


def test_dead_tokens_dropped_on_use(built):
    w, eco = built
    net = eco.network("official-liker.net")
    hp = w.platform.register_account("HP5", is_honeypot=True)
    net.join(hp.account_id)
    # Invalidate a big slice of the pool.
    victims = list(net.token_db)[:200]
    for member in victims:
        if member != hp.account_id:
            w.tokens.invalidate(net.token_db[member])
    before = net.member_count()
    post = w.platform.create_post(hp.account_id, "x")
    report = net.submit_like_request(hp.account_id, post.post_id)
    assert report.dead_tokens_dropped > 0
    assert net.member_count() < before
    assert len(net.dead_members) >= report.dead_tokens_dropped


def test_outage_blocks_requests(built):
    w, eco = built
    net = eco.network("hublaa.me")
    hp = w.platform.register_account("HP6", is_honeypot=True)
    net.join(hp.account_id)
    now = w.clock.now()
    net.schedule_outage(now, now + DAY)
    post = w.platform.create_post(hp.account_id, "x")
    report = net.submit_like_request(hp.account_id, post.post_id)
    assert report.delivered == 0
    assert net.in_scheduled_outage()


def test_outage_validation(built):
    w, eco = built
    net = eco.network("hublaa.me")
    with pytest.raises(ValueError):
        net.schedule_outage(100, 100)


def test_background_usage_spends_member_token(built):
    w, eco = built
    net = eco.network("official-liker.net")
    hp = w.platform.register_account("HP7", is_honeypot=True)
    net.join(hp.account_id)
    performed = net.use_member_token_for_background(hp.account_id, 5)
    assert performed == 5
    records = w.platform.activity_log.for_actor(hp.account_id)
    likes = [r for r in records if r.verb == "like"]
    assert len(likes) == 5
    # Targets are other members' content, never the honeypot's own.
    assert all(r.target_owner_id != hp.account_id for r in likes)


def test_replenishment_rejoins_dead_members(built):
    w, eco = built
    net = eco.network("mg-likers.com")
    # Kill some members and enable replenishment.
    victims = list(net.token_db)[:50]
    for member in victims:
        w.tokens.invalidate(net.token_db[member])
        net._drop_member(member)
    assert len(net.dead_members) >= 50
    net.replenishment_enabled = True
    before_members = net.member_count()
    net.daily_tick()
    assert net.member_count() > before_members


def test_monetization_premium_quota(built):
    w, eco = built
    net = eco.network("hublaa.me")
    hp = w.platform.register_account("Payer", is_honeypot=True)
    net.join(hp.account_id)
    free = net.monetization.likes_per_request_for(hp.account_id)
    net.monetization.subscribe(hp.account_id, "ultimate")
    premium = net.monetization.likes_per_request_for(hp.account_id)
    assert premium == 2000 > free
    assert net.monetization.monthly_revenue_usd() == pytest.approx(29.99)
