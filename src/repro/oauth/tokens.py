"""Access tokens: issuance, expiry, validation and invalidation.

Tokens are opaque strings (§2.1).  Facebook issues *short-term* tokens
(1–2 h) and *long-term* tokens (~2 months); the 9 susceptible apps of
Table 1 matter precisely because they receive long-term tokens, giving
collusion networks a two-month abuse window per token.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterable, List, Optional, Tuple

from repro.oauth.errors import InvalidTokenError
from repro.oauth.scopes import Permission, PermissionScope
from repro.sim.clock import DAY, HOUR, SimClock

#: Short-term token lifetime (Facebook: 1-2 hours; we use the midpoint).
SHORT_TERM_LIFETIME = int(1.5 * HOUR)

#: Long-term token lifetime (~2 months).
LONG_TERM_LIFETIME = 60 * DAY


class TokenLifetime(enum.Enum):
    """Which expiry class an application's tokens get."""

    SHORT_TERM = "short_term"
    LONG_TERM = "long_term"

    @property
    def seconds(self) -> int:
        if self is TokenLifetime.SHORT_TERM:
            return SHORT_TERM_LIFETIME
        return LONG_TERM_LIFETIME


@dataclass(slots=True)
class AccessToken:
    """An issued OAuth 2.0 bearer token.

    Slotted: the store keeps one per grant, about a million at paper
    scale, and a slotted instance is 97 bytes against 145 with a
    ``__dict__``.
    """

    token: str
    user_id: str
    app_id: str
    scope: PermissionScope
    issued_at: int
    expires_at: int
    invalidated: bool = False
    invalidation_reason: Optional[str] = None

    def is_expired(self, now: int) -> bool:
        return now >= self.expires_at

    def is_valid(self, now: int) -> bool:
        return not self.invalidated and not self.is_expired(now)

    def grants(self, permission: Permission) -> bool:
        return self.scope.contains(permission)


class TokenStore:
    """Issues and tracks every access token on the platform.

    The store is the enforcement point for the honeypot-based token
    invalidation countermeasure (§6.2): invalidating a token here makes
    every subsequent Graph API call with it fail.
    """

    #: The flip log, left out of the state: only its entries past a
    #: mark are read, and a resume re-takes its marks after the chain.
    #: A delta ships the day's issued tokens with their flags and only
    #: earlier tokens as flips, so a rebuilt store's log lacks the flips
    #: of tokens issued and invalidated on the same day.
    _TRANSIENT = ("_flips",)

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._tokens: Dict[str, AccessToken] = {}
        #: app id -> user id -> latest token string: no key tuple per
        #: grant, as a study's grants are few apps by many users.
        self._by_app: Dict[str, Dict[str, str]] = {}
        self._counter = 0
        #: Every token whose invalidated flag flipped, in flip order.
        self._flips: List[AccessToken] = []

    def __len__(self) -> int:
        return len(self._tokens)

    def _mint_token_string(self, user_id: str, app_id: str) -> str:
        """Create an opaque, unguessable-looking token string."""
        self._counter += 1
        digest = hashlib.sha256(
            f"{user_id}|{app_id}|{self._counter}".encode("utf-8")
        ).hexdigest()
        return f"EAAB{digest[:40]}"

    def issue(self, user_id: str, app_id: str, scope: PermissionScope,
              lifetime: TokenLifetime) -> AccessToken:
        """Issue a fresh token for (user, app) with the given scope.

        Re-authorizing replaces the previous live token for the same
        (user, app) pair, mirroring Facebook's behaviour when a user
        re-installs an application.
        """
        now = self._clock.now()
        token = AccessToken(
            token=self._mint_token_string(user_id, app_id),
            user_id=user_id,
            app_id=app_id,
            scope=scope,
            issued_at=now,
            expires_at=now + lifetime.seconds,
        )
        by_user = self._by_app.setdefault(app_id, {})
        previous = by_user.get(user_id)
        if previous is not None:
            old = self._tokens[previous]
            if old.is_valid(now):
                old.invalidated = True
                old.invalidation_reason = "superseded"
                self._flips.append(old)
        self._tokens[token.token] = token
        by_user[user_id] = token.token
        return token

    def validate(self, token_string: str) -> AccessToken:
        """Return the live token for ``token_string`` or raise."""
        token = self._tokens.get(token_string)
        if token is None:
            raise InvalidTokenError("unknown access token")
        if token.invalidated:
            raise InvalidTokenError(
                f"access token invalidated ({token.invalidation_reason})"
            )
        if token.is_expired(self._clock.now()):
            raise InvalidTokenError("access token expired")
        return token

    def peek(self, token_string: str) -> Optional[AccessToken]:
        """Look up a token without validity checks (for analyses)."""
        return self._tokens.get(token_string)

    def invalidate(self, token_string: str,
                   reason: str = "invalidated") -> bool:
        """Invalidate one token; returns False if it was already dead."""
        token = self._tokens.get(token_string)
        if token is None or not token.is_valid(self._clock.now()):
            return False
        token.invalidated = True
        token.invalidation_reason = reason
        self._flips.append(token)
        return True

    def invalidate_many(self, token_strings: Iterable[str],
                        reason: str = "invalidated") -> int:
        """Invalidate a batch; returns how many were live before the call."""
        return sum(1 for t in token_strings if self.invalidate(t, reason))

    # ------------------------------------------------------------------
    # State transfer (campaign checkpoints)
    # ------------------------------------------------------------------
    # Tokens are only ever added, in issue order, and a token's one
    # later change is its invalidated flag, set once together with its
    # reason and logged in ``_flips``.  So a mark is two counts, and a
    # checkpoint carries the tokens issued since the previous day's mark
    # plus the earlier tokens whose flag flipped since: both are tails.
    def mark(self) -> Tuple[int, int]:
        """Tokens issued and flips logged so far."""
        return len(self._tokens), len(self._flips)

    def export_delta(self, mark: Tuple[int, int]) -> Dict:
        """Tokens issued since ``mark`` as plain picklable rows, and the
        earlier tokens whose invalidated flag flipped since, by string.

        Scope objects are shared — they are immutable by convention.
        """
        issued_since, flips_since = mark
        new = list(islice(reversed(self._tokens.values()),
                          len(self._tokens) - issued_since))
        new.reverse()
        issued = [(t.token, t.user_id, t.app_id, t.scope, t.issued_at,
                   t.expires_at, t.invalidated, t.invalidation_reason)
                  for t in new]
        new_tokens = {t.token for t in new}
        flipped = [(t.token, t.invalidated, t.invalidation_reason)
                   for t in self._flips[flips_since:]
                   if t.token not in new_tokens]
        return {"counter": self._counter, "flipped": flipped,
                "issued": issued}

    def apply_delta(self, delta: Dict) -> None:
        """Apply an :meth:`export_delta` onto the store it was marked on.

        Tokens already present keep their *object identity* and flip in
        place (and are logged as flipped) — callers across the
        simulation (API caches, network token books) hold references to
        the live objects.  Issued tokens replay :meth:`issue`'s
        bookkeeping in issue order.
        """
        self._counter = delta["counter"]
        tokens = self._tokens
        for token, invalidated, reason in delta["flipped"]:
            live = tokens[token]
            if live.invalidated != invalidated:
                self._flips.append(live)
            live.invalidated = invalidated
            live.invalidation_reason = reason
        for (token, user_id, app_id, scope, issued_at, expires_at,
             invalidated, reason) in delta["issued"]:
            tokens[token] = AccessToken(
                token=token, user_id=user_id, app_id=app_id, scope=scope,
                issued_at=issued_at, expires_at=expires_at,
                invalidated=invalidated, invalidation_reason=reason)
            self._by_app.setdefault(app_id, {})[user_id] = token

    def live_tokens_for_app(self, app_id: str) -> List[AccessToken]:
        now = self._clock.now()
        return [t for t in self._tokens.values()
                if t.app_id == app_id and t.is_valid(now)]

    def live_token_for(self, user_id: str, app_id: str) -> Optional[AccessToken]:
        """The currently-valid token for (user, app), if any."""
        token_string = self._by_app.get(app_id, {}).get(user_id)
        if token_string is None:
            return None
        token = self._tokens[token_string]
        return token if token.is_valid(self._clock.now()) else None
