"""The OAuth 2.0 authorization server (implicit + authorization-code flows).

The flows follow the message sequence of the paper's Fig. 1.  Redirects are
materialized as URL strings when read, so the collusion-network trick of
having the user copy ``#access_token=...`` out of the browser address bar
(§3) is reproduced literally by parsing the redirect URL fragment.
"""

from __future__ import annotations

import hashlib
import urllib.parse
from dataclasses import dataclass
from typing import Dict, Optional

from repro.oauth.apps import Application, ApplicationRegistry
from repro.oauth.errors import (
    FlowDisabledError,
    InvalidAppSecretError,
    InvalidAuthorizationCodeError,
    InvalidRedirectUriError,
    InvalidTokenError,
    PermissionNotGrantedError,
)
from repro.oauth.scopes import PermissionScope
from repro.oauth.tokens import AccessToken, TokenStore
from repro.sim.clock import MINUTE, SimClock

#: Authorization codes are single-use and expire quickly (RFC 6749 §4.1.2
#: recommends a maximum of 10 minutes).
AUTHORIZATION_CODE_LIFETIME = 10 * MINUTE


@dataclass(slots=True)
class AuthorizationRequest:
    """The parameters the login button sends to the authorization server.

    Slotted and not frozen, like the other hot dataclasses: a membership
    build constructs one request and one result per recruit.
    """

    app_id: str
    redirect_uri: str
    response_type: str  # "token" (implicit) or "code" (server-side)
    scope: PermissionScope
    state: Optional[str] = None


@dataclass(slots=True)
class AuthorizationResult:
    """Outcome of a completed authorization: the browser redirect.

    The result keeps the structured outcome: the redirect URI, the
    issued token (implicit flow) or code (authorization-code flow), and
    the request's ``state``.  :attr:`redirect_url` builds the URL string
    the browser is sent to only when it is read, so a bulk grant that
    takes ``access_token`` directly pays no urlencode/parse round trip.
    :meth:`token_from_fragment` and :meth:`code_from_query` parse that
    real URL, as a user copying it out of the address bar would.
    """

    redirect_uri: str
    access_token: Optional[AccessToken] = None
    authorization_code: Optional[str] = None
    state: Optional[str] = None

    @property
    def redirect_url(self) -> str:
        """The redirect: the token in the URI fragment (implicit flow)
        or the code in its query string (authorization-code flow)."""
        token = self.access_token
        if token is not None:
            fragment = urllib.parse.urlencode({
                "access_token": token.token,
                "expires_in": token.expires_at - token.issued_at,
                "token_type": "bearer",
            })
            if self.state:
                fragment += "&" + urllib.parse.urlencode(
                    {"state": self.state})
            return f"{self.redirect_uri}#{fragment}"
        query = {"code": self.authorization_code}
        if self.state:
            query["state"] = self.state
        return f"{self.redirect_uri}?{urllib.parse.urlencode(query)}"

    def token_from_fragment(self) -> Optional[str]:
        """Extract ``access_token`` from the redirect URL fragment.

        This is exactly what a colluding user does manually when the
        collusion network shows them the dialog with ``view-source``
        prepended: the token rides in the fragment of the address bar.
        """
        fragment = urllib.parse.urlparse(self.redirect_url).fragment
        params = urllib.parse.parse_qs(fragment)
        values = params.get("access_token")
        return values[0] if values else None

    def code_from_query(self) -> Optional[str]:
        query = urllib.parse.urlparse(self.redirect_url).query
        params = urllib.parse.parse_qs(query)
        values = params.get("code")
        return values[0] if values else None


@dataclass
class _PendingCode:
    code: str
    user_id: str
    app_id: str
    redirect_uri: str
    scope: PermissionScope
    issued_at: int
    used: bool = False


class AuthorizationServer:
    """Validates authorization requests and issues tokens/codes."""

    def __init__(self, clock: SimClock, apps: ApplicationRegistry,
                 tokens: TokenStore) -> None:
        self._clock = clock
        self._apps = apps
        self._tokens = tokens
        self._codes: Dict[str, _PendingCode] = {}
        self._code_counter = 0

    # ------------------------------------------------------------------
    # Request validation
    # ------------------------------------------------------------------
    def _validate(self, request: AuthorizationRequest) -> Application:
        app = self._apps.get(request.app_id)
        if request.redirect_uri != app.redirect_uri:
            raise InvalidRedirectUriError(app.app_id, request.redirect_uri)
        if request.response_type == "token":
            if not app.security.client_side_flow_enabled:
                raise FlowDisabledError(app.app_id, "client-side")
        elif request.response_type != "code":
            raise ValueError(
                f"unsupported response_type: {request.response_type!r}"
            )
        approved = app.approved_permissions
        # Scopes are immutable, so a request for the app's own approved
        # scope object (every network grant) cannot ask for more.
        if request.scope is not approved:
            for permission in request.scope.sensitive():
                if not approved.contains(permission):
                    raise PermissionNotGrantedError(app.app_id,
                                                    permission.value)
        return app

    # ------------------------------------------------------------------
    # User-facing authorization (the dialog of Fig. 1)
    # ------------------------------------------------------------------
    def authorize(self, request: AuthorizationRequest,
                  user_id: str) -> AuthorizationResult:
        """User approves the dialog; returns the resulting redirect.

        For ``response_type="token"`` the access token rides in the
        redirect URI *fragment* (implicit flow); for ``"code"`` an
        authorization code rides in the *query string*.
        """
        app = self._validate(request)
        if request.response_type == "token":
            token = self._tokens.issue(
                user_id, app.app_id, request.scope, app.token_lifetime
            )
            return AuthorizationResult(
                redirect_uri=request.redirect_uri, access_token=token,
                state=request.state)
        return AuthorizationResult(
            redirect_uri=request.redirect_uri,
            authorization_code=self._mint_code(user_id, app, request),
            state=request.state)

    def _mint_code(self, user_id: str, app: Application,
                   request: AuthorizationRequest) -> str:
        self._code_counter += 1
        code = hashlib.sha256(
            f"code|{user_id}|{app.app_id}|{self._code_counter}".encode()
        ).hexdigest()[:32]
        self._codes[code] = _PendingCode(
            code=code, user_id=user_id, app_id=app.app_id,
            redirect_uri=request.redirect_uri, scope=request.scope,
            issued_at=self._clock.now(),
        )
        return code

    # ------------------------------------------------------------------
    # Server-side code exchange (Fig. 1, final step)
    # ------------------------------------------------------------------
    def exchange_code(self, app_id: str, redirect_uri: str, code: str,
                      app_secret: str) -> AccessToken:
        """Exchange an authorization code for an access token.

        This leg runs app-server-to-authorization-server and is
        authenticated with the application secret — which is why tokens
        never reach the browser in the server-side flow.
        """
        app = self._apps.get(app_id)
        if not app.check_secret(app_secret):
            raise InvalidAppSecretError(app_id)
        pending = self._codes.get(code)
        now = self._clock.now()
        if (pending is None or pending.used or pending.app_id != app_id
                or pending.redirect_uri != redirect_uri
                or now - pending.issued_at > AUTHORIZATION_CODE_LIFETIME):
            raise InvalidAuthorizationCodeError()
        pending.used = True
        return self._tokens.issue(
            pending.user_id, app.app_id, pending.scope, app.token_lifetime
        )

    # ------------------------------------------------------------------
    # Token introspection and extension (Facebook's debug_token and
    # fb_exchange_token endpoints)
    # ------------------------------------------------------------------
    def debug_token(self, input_token: str) -> Dict[str, object]:
        """Inspect a token's metadata (the ``/debug_token`` endpoint).

        Never raises for dead tokens — introspection reports validity,
        which is how the platform's abuse team inspects milked tokens.
        """
        token = self._tokens.peek(input_token)
        if token is None:
            return {"is_valid": False, "error": "unknown token"}
        now = self._clock.now()
        return {
            "is_valid": token.is_valid(now),
            "app_id": token.app_id,
            "user_id": token.user_id,
            "scopes": sorted(p.value for p in token.scope),
            "issued_at": token.issued_at,
            "expires_at": token.expires_at,
            "invalidation_reason": token.invalidation_reason,
        }

    def extend_token(self, app_id: str, app_secret: str,
                     exchange_token: str) -> AccessToken:
        """Exchange a live short-term token for a long-term one.

        The ``fb_exchange_token`` grant: server-to-server, authenticated
        with the application secret — which is why collusion networks,
        holding only bare tokens, cannot stretch a short-term leak into
        a two-month one.
        """
        app = self._apps.get(app_id)
        if not app.check_secret(app_secret):
            raise InvalidAppSecretError(app_id)
        token = self._tokens.validate(exchange_token)
        if token.app_id != app_id:
            raise InvalidTokenError(
                "token was not issued to this application")
        from repro.oauth.tokens import TokenLifetime

        return self._tokens.issue(token.user_id, app_id, token.scope,
                                  TokenLifetime.LONG_TERM)

    # ------------------------------------------------------------------
    # Convenience: the full login-dialog URL an application embeds
    # ------------------------------------------------------------------
    def login_dialog_url(self, app_id: str, response_type: str,
                         scope: PermissionScope) -> str:
        """The ``facebook.com/dialog/oauth``-style URL for an app login."""
        app = self._apps.get(app_id)
        params = urllib.parse.urlencode({
            "client_id": app.app_id,
            "redirect_uri": app.redirect_uri,
            "response_type": response_type,
            "scope": scope.to_scope_string(),
        })
        return f"https://social.example/dialog/oauth?{params}"
