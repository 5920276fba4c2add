"""Tests for the OAuth 2.0 authorization server (both flows)."""

import pytest

from repro.oauth.apps import AppSecuritySettings
from repro.oauth.review import AppReviewProcess
from repro.oauth.errors import (
    FlowDisabledError,
    InvalidAppSecretError,
    InvalidAuthorizationCodeError,
    InvalidRedirectUriError,
    PermissionNotGrantedError,
)
from repro.oauth.scopes import Permission, PermissionScope
from repro.oauth.server import AUTHORIZATION_CODE_LIFETIME, AuthorizationRequest
from repro.oauth.tokens import TokenLifetime


@pytest.fixture
def app(world):
    return world.apps.register(
        "TestApp", "https://app.example/cb",
        security=AppSecuritySettings(client_side_flow_enabled=True,
                                     require_app_secret=False),
        approved_permissions=PermissionScope.full(),
        token_lifetime=TokenLifetime.LONG_TERM,
    )


@pytest.fixture
def user(world):
    return world.platform.register_account("User")


def _request(app, response_type="token", scope=None, state=None):
    return AuthorizationRequest(
        app_id=app.app_id,
        redirect_uri=app.redirect_uri,
        response_type=response_type,
        scope=scope or app.approved_permissions,
        state=state,
    )


def test_implicit_flow_returns_token_in_fragment(world, app, user):
    result = world.auth_server.authorize(_request(app), user.account_id)
    assert result.access_token is not None
    assert "#" in result.redirect_url
    assert result.token_from_fragment() == result.access_token.token


def test_implicit_flow_token_is_valid(world, app, user):
    result = world.auth_server.authorize(_request(app), user.account_id)
    token = world.tokens.validate(result.token_from_fragment())
    assert token.user_id == user.account_id
    assert token.app_id == app.app_id


def test_state_round_trips(world, app, user):
    result = world.auth_server.authorize(
        _request(app, state="xyz"), user.account_id)
    assert "state=xyz" in result.redirect_url
    # A state that needs quoting: the exact redirects (quoting and
    # parameter order included) as the server has always built them.
    state = "a b&c=d/ü"
    implicit = world.auth_server.authorize(
        _request(app, state=state), user.account_id)
    assert implicit.redirect_url == (
        "https://app.example/cb#access_token="
        "EAABd998cf15ed6dad32f090923cba83e83e2276134b"
        "&expires_in=5184000&token_type=bearer"
        "&state=a+b%26c%3Dd%2F%C3%BC")
    code = world.auth_server.authorize(
        _request(app, response_type="code", state=state), user.account_id)
    assert code.redirect_url == (
        "https://app.example/cb?code=3accfaa65d02a83092f64bd6cd60dec9"
        "&state=a+b%26c%3Dd%2F%C3%BC")
    assert implicit.token_from_fragment() == implicit.access_token.token
    assert code.code_from_query() == code.authorization_code


def test_code_flow_returns_code_in_query(world, app, user):
    result = world.auth_server.authorize(
        _request(app, response_type="code"), user.account_id)
    assert result.authorization_code is not None
    assert result.code_from_query() == result.authorization_code
    assert result.access_token is None


def test_code_exchange_requires_secret(world, app, user):
    result = world.auth_server.authorize(
        _request(app, response_type="code"), user.account_id)
    with pytest.raises(InvalidAppSecretError):
        world.auth_server.exchange_code(
            app.app_id, app.redirect_uri, result.authorization_code,
            "wrong-secret")
    token = world.auth_server.exchange_code(
        app.app_id, app.redirect_uri, result.authorization_code,
        app.secret)
    assert token.user_id == user.account_id


def test_code_single_use(world, app, user):
    result = world.auth_server.authorize(
        _request(app, response_type="code"), user.account_id)
    world.auth_server.exchange_code(app.app_id, app.redirect_uri,
                                    result.authorization_code, app.secret)
    with pytest.raises(InvalidAuthorizationCodeError):
        world.auth_server.exchange_code(
            app.app_id, app.redirect_uri, result.authorization_code,
            app.secret)


def test_code_expires(world, app, user):
    result = world.auth_server.authorize(
        _request(app, response_type="code"), user.account_id)
    world.clock.advance(AUTHORIZATION_CODE_LIFETIME + 1)
    with pytest.raises(InvalidAuthorizationCodeError):
        world.auth_server.exchange_code(
            app.app_id, app.redirect_uri, result.authorization_code,
            app.secret)


def test_disabled_client_flow_rejected(world, user):
    app = world.apps.register(
        "ServerOnly", "https://srv.example/cb",
        security=AppSecuritySettings(client_side_flow_enabled=False),
    )
    with pytest.raises(FlowDisabledError):
        world.auth_server.authorize(_request(app), user.account_id)
    # The server-side flow still works.
    result = world.auth_server.authorize(
        _request(app, response_type="code"), user.account_id)
    assert result.authorization_code is not None


def test_wrong_redirect_uri_rejected(world, app, user):
    bad = AuthorizationRequest(
        app_id=app.app_id,
        redirect_uri="https://evil.example/cb",
        response_type="token",
        scope=app.approved_permissions,
    )
    with pytest.raises(InvalidRedirectUriError):
        world.auth_server.authorize(bad, user.account_id)


def test_unapproved_sensitive_permission_rejected(world, user):
    app = world.apps.register("ReadOnly", "https://ro.example/cb")
    request = AuthorizationRequest(
        app_id=app.app_id,
        redirect_uri=app.redirect_uri,
        response_type="token",
        scope=PermissionScope({Permission.PUBLISH_ACTIONS}),
    )
    with pytest.raises(PermissionNotGrantedError):
        world.auth_server.authorize(request, user.account_id)


def test_only_the_apps_own_scope_object_skips_the_permission_check(
        world, app, user):
    # A request carrying the app's approved scope object cannot ask for
    # more than the app holds, so the server skips the sensitive loop
    # for it.  Any other object is checked: another app's scope, and
    # the app's own earlier scope once it has been replaced.
    reader = world.apps.register(
        "Reader", "https://reader.example/cb",
        security=AppSecuritySettings(client_side_flow_enabled=True,
                                     require_app_secret=False))
    with pytest.raises(PermissionNotGrantedError):
        world.auth_server.authorize(
            _request(reader, scope=app.approved_permissions),
            user.account_id)

    earlier = app.approved_permissions
    # The platform withdraws publish_actions; a review then approves
    # manage_pages and hands the app a new scope object.
    app.approved_permissions = PermissionScope.basic()
    AppReviewProcess().submit(
        app, PermissionScope({Permission.MANAGE_PAGES}), "page insights")
    assert app.approved_permissions is not earlier
    assert not app.approved_permissions.contains(Permission.PUBLISH_ACTIONS)
    with pytest.raises(PermissionNotGrantedError):
        world.auth_server.authorize(_request(app, scope=earlier),
                                    user.account_id)
    result = world.auth_server.authorize(
        _request(app, scope=app.approved_permissions), user.account_id)
    assert result.access_token.scope is app.approved_permissions


def test_unsupported_response_type(world, app, user):
    with pytest.raises(ValueError):
        world.auth_server.authorize(
            _request(app, response_type="id_token"), user.account_id)


def test_login_dialog_url_contains_parameters(world, app):
    import urllib.parse

    url = world.auth_server.login_dialog_url(
        app.app_id, "token", PermissionScope.basic())
    params = urllib.parse.parse_qs(urllib.parse.urlparse(url).query)
    assert params["client_id"] == [app.app_id]
    assert params["response_type"] == ["token"]
    assert params["redirect_uri"] == [app.redirect_uri]


def test_token_lifetime_follows_app(world, user):
    short_app = world.apps.register(
        "ShortApp", "https://s.example/cb",
        token_lifetime=TokenLifetime.SHORT_TERM)
    result = world.auth_server.authorize(
        AuthorizationRequest(short_app.app_id, short_app.redirect_uri,
                             "token", PermissionScope.basic()),
        user.account_id)
    token = result.access_token
    assert (token.expires_at - token.issued_at
            == TokenLifetime.SHORT_TERM.seconds)
