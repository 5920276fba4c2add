"""Tests for the Graph API layer: auth, permissions, limits, logging."""

import pytest

from repro.graphapi.errors import (
    AppSecretRequiredError,
    BlockedSourceError,
    IpRateLimitError,
    PermissionDeniedError,
    RateLimitExceededError,
)
from repro.graphapi.request import ApiAction
from repro.oauth.apps import AppSecuritySettings
from repro.oauth.errors import InvalidTokenError
from repro.oauth.scopes import PermissionScope
from repro.oauth.server import AuthorizationRequest
from repro.oauth.tokens import TokenLifetime
from repro.sim.clock import DAY


@pytest.fixture
def setup(world):
    app = world.apps.register(
        "Api App", "https://api.example/cb",
        security=AppSecuritySettings(True, False),
        approved_permissions=PermissionScope.full(),
        token_lifetime=TokenLifetime.LONG_TERM,
    )
    user = world.platform.register_account("User")
    target = world.platform.register_account("Target")
    post = world.platform.create_post(target.account_id, "content")
    result = world.auth_server.authorize(
        AuthorizationRequest(app.app_id, app.redirect_uri, "token",
                             app.approved_permissions),
        user.account_id)
    return app, user, post, result.access_token.token


def test_get_profile(world, setup):
    app, user, post, token = setup
    response = world.api.get_profile(token)
    assert response.data["id"] == user.account_id


def test_like_post_via_api(world, setup):
    app, user, post, token = setup
    world.api.like_post(token, post.post_id, source_ip="10.60.0.1")
    fetched = world.platform.get_post(post.post_id)
    assert fetched.liked_by(user.account_id)
    assert fetched.likes[0].via_app_id == app.app_id
    assert fetched.likes[0].source_ip == "10.60.0.1"


def test_comment_via_api(world, setup):
    app, user, post, token = setup
    world.api.comment(token, post.post_id, "hello")
    assert world.platform.get_post(post.post_id).comment_count == 1


def test_create_post_via_api(world, setup):
    app, user, post, token = setup
    response = world.api.create_post(token, "new status")
    created = world.platform.get_post(response.data["post_id"])
    assert created.author_id == user.account_id


def test_invalid_token_rejected(world, setup):
    app, user, post, token = setup
    world.tokens.invalidate(token)
    with pytest.raises(InvalidTokenError):
        world.api.like_post(token, post.post_id)


def test_app_secret_enforced(world):
    app = world.apps.register(
        "Strict App", "https://strict.example/cb",
        security=AppSecuritySettings(True, True),
        approved_permissions=PermissionScope.full(),
    )
    user = world.platform.register_account("User")
    result = world.auth_server.authorize(
        AuthorizationRequest(app.app_id, app.redirect_uri, "token",
                             app.approved_permissions),
        user.account_id)
    token = result.access_token.token
    with pytest.raises(AppSecretRequiredError):
        world.api.get_profile(token)
    # With the right proof the call goes through.
    response = world.api.get_profile(token, appsecret_proof=app.secret)
    assert response.data["id"] == user.account_id


def test_permission_scope_enforced(world):
    app = world.apps.register(
        "ReadOnly", "https://ro.example/cb",
        approved_permissions=PermissionScope.basic(),
    )
    user = world.platform.register_account("User")
    target = world.platform.register_account("T")
    post = world.platform.create_post(target.account_id, "x")
    result = world.auth_server.authorize(
        AuthorizationRequest(app.app_id, app.redirect_uri, "token",
                             PermissionScope.basic()),
        user.account_id)
    with pytest.raises(PermissionDeniedError):
        world.api.like_post(result.access_token.token, post.post_id)


def test_token_rate_limit(world, setup):
    app, user, post, token = setup
    world.policy.token_actions_per_day = 3
    for i in range(3):
        world.api.create_post(token, f"post {i}")
    with pytest.raises(RateLimitExceededError):
        world.api.create_post(token, "over budget")
    # The sliding window frees up after a day.
    world.clock.advance(DAY + 1)
    world.api.create_post(token, "new day")


def test_ip_rate_limit_applies_to_likes_only(world, setup):
    app, user, post, token = setup
    world.policy.ip_likes_per_day = 1
    world.api.like_post(token, post.post_id, source_ip="10.60.0.9")
    other = world.platform.create_post(
        world.platform.register_account("O").account_id, "y")
    with pytest.raises(IpRateLimitError):
        world.api.like_post(token, other.post_id, source_ip="10.60.0.9")
    # Non-like writes from the same IP are unaffected.
    world.api.create_post(token, "still fine", source_ip="10.60.0.9")


def test_as_blocking(world, setup):
    app, user, post, token = setup
    world.as_registry.register(64999, "Evil Host")
    world.as_registry.announce(64999, "10.99.0.0", 16)
    world.policy.block_as_for_app(app.app_id, 64999)
    with pytest.raises(BlockedSourceError):
        world.api.like_post(token, post.post_id, source_ip="10.99.0.5")
    # Other source addresses still work.
    world.api.like_post(token, post.post_id, source_ip="10.98.0.5")


def test_request_log_records_outcomes(world, setup):
    app, user, post, token = setup
    world.api.like_post(token, post.post_id, source_ip="10.60.0.1")
    world.tokens.invalidate(token)
    with pytest.raises(InvalidTokenError):
        world.api.like_post(token, post.post_id)
    records = world.api.log.all()
    assert [r.outcome for r in records] == ["ok", "invalid_token"]
    ok = records[0]
    assert ok.action is ApiAction.LIKE_POST
    assert ok.user_id == user.account_id
    assert ok.app_id == app.app_id
    assert ok.target_id == post.post_id


def test_charge_like_counts_without_writing(world, setup):
    app, user, post, token = setup
    before = len(world.api.log)
    wave = world.api.delivery_wave()
    assert wave.charge(token, source_ip="10.60.0.1") is None
    wave.finish()
    assert world.api.charge_counters["likes"] == 1
    assert len(world.api.log) == before  # not logged
    # Charges share the same token budget as real writes.  Changing the
    # policy rebuilds the window, so the budget counts from here; a
    # wave reads the policy when it opens, so the next one opens after.
    world.policy.token_actions_per_day = 2
    wave = world.api.delivery_wave()
    assert wave.charge(token, source_ip="10.60.0.1") is None
    assert wave.charge(token, source_ip="10.60.0.1") is None
    assert wave.charge(token, source_ip="10.60.0.1") == "token_limit"
    wave.finish()
    assert world.api.charge_counters["likes"] == 3
    with pytest.raises(RateLimitExceededError):
        world.api.like_post(token, post.post_id, source_ip="10.60.0.1")


def test_get_app_stats(world, setup):
    app, user, post, token = setup
    stats = world.api.get_app_stats(token, app.app_id).data
    assert stats["name"] == "Api App"


def test_get_object_likes(world, setup):
    app, user, post, token = setup
    world.api.like_post(token, post.post_id)
    from repro.graphapi.request import ApiRequest

    response = world.api.execute(ApiRequest(
        ApiAction.GET_OBJECT_LIKES, token, {"post_id": post.post_id}))
    assert response.data["likers"] == [user.account_id]
