"""Tests for appsecret_proof, debug_token and token extension."""

import pytest

from repro.oauth.apps import AppSecuritySettings
from repro.oauth.errors import InvalidAppSecretError, InvalidTokenError
from repro.oauth.proof import compute_appsecret_proof, verify_appsecret_proof
from repro.oauth.scopes import PermissionScope
from repro.oauth.server import AuthorizationRequest
from repro.oauth.tokens import LONG_TERM_LIFETIME, TokenLifetime


def test_proof_round_trip():
    proof = compute_appsecret_proof("secret", "token")
    assert verify_appsecret_proof("secret", "token", proof)
    assert not verify_appsecret_proof("other", "token", proof)
    assert not verify_appsecret_proof("secret", "other-token", proof)
    assert not verify_appsecret_proof("secret", "token", "")


def _strict_app(world):
    return world.apps.register(
        "Strict", "https://strict.example/cb",
        security=AppSecuritySettings(True, True),
        approved_permissions=PermissionScope.full(),
        token_lifetime=TokenLifetime.SHORT_TERM,
    )


def _token_for(world, app, user):
    return world.auth_server.authorize(
        AuthorizationRequest(app.app_id, app.redirect_uri, "token",
                             app.approved_permissions),
        user.account_id).access_token.token


def test_hmac_proof_accepted_by_api(world):
    app = _strict_app(world)
    user = world.platform.register_account("U")
    token = _token_for(world, app, user)
    proof = compute_appsecret_proof(app.secret, token)
    response = world.api.get_profile(token, appsecret_proof=proof)
    assert response.data["id"] == user.account_id
    post = world.platform.create_post(user.account_id, "proof")
    world.api.like_post(token, post.post_id, appsecret_proof=proof)
    assert world.platform.get_post(post.post_id).like_count == 1


def test_hmac_proof_bound_to_token(world):
    """A proof computed for one token is useless with another."""
    app = _strict_app(world)
    alice = world.platform.register_account("Alice")
    bob = world.platform.register_account("Bob")
    alice_token = _token_for(world, app, alice)
    bob_token = _token_for(world, app, bob)
    proof_for_alice = compute_appsecret_proof(app.secret, alice_token)
    from repro.graphapi.errors import AppSecretRequiredError

    with pytest.raises(AppSecretRequiredError):
        world.api.get_profile(bob_token, appsecret_proof=proof_for_alice)


def test_wave_charge_refused_by_strict_app(world):
    """A wave carries no proof, so a strict app refuses its charges."""
    app = _strict_app(world)
    user = world.platform.register_account("U2")
    token = _token_for(world, app, user)
    wave = world.api.delivery_wave()
    assert wave.charge(token, source_ip="10.0.0.1") == "app_secret"
    wave.finish()
    assert world.api.charge_counters["likes"] == 0


def test_debug_token_reports_metadata(world):
    app = _strict_app(world)
    user = world.platform.register_account("U3")
    token = _token_for(world, app, user)
    info = world.auth_server.debug_token(token)
    assert info["is_valid"] is True
    assert info["app_id"] == app.app_id
    assert info["user_id"] == user.account_id
    assert "publish_actions" in info["scopes"]


def test_debug_token_dead_and_unknown(world):
    app = _strict_app(world)
    user = world.platform.register_account("U4")
    token = _token_for(world, app, user)
    world.tokens.invalidate(token, "abuse")
    info = world.auth_server.debug_token(token)
    assert info["is_valid"] is False
    assert info["invalidation_reason"] == "abuse"
    assert world.auth_server.debug_token("garbage") == {
        "is_valid": False, "error": "unknown token"}


def test_extend_token_requires_secret(world):
    app = _strict_app(world)
    user = world.platform.register_account("U5")
    short = _token_for(world, app, user)
    with pytest.raises(InvalidAppSecretError):
        world.auth_server.extend_token(app.app_id, "wrong", short)
    long_token = world.auth_server.extend_token(app.app_id, app.secret,
                                                short)
    assert (long_token.expires_at - long_token.issued_at
            == LONG_TERM_LIFETIME)
    # The exchanged short token is superseded.
    with pytest.raises(InvalidTokenError):
        world.tokens.validate(short)


def test_extend_token_wrong_app(world):
    app = _strict_app(world)
    other = world.apps.register("Other", "https://o.example/cb")
    user = world.platform.register_account("U6")
    token = _token_for(world, app, user)
    with pytest.raises(InvalidTokenError):
        world.auth_server.extend_token(other.app_id, other.secret, token)
