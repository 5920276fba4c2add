"""Third-party application registry and per-app security settings."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.oauth.errors import UnknownApplicationError
from repro.oauth.scopes import Permission, PermissionScope
from repro.oauth.tokens import TokenLifetime


@dataclass
class AppSecuritySettings:
    """The two security knobs from the paper's Fig. 2.

    ``client_side_flow_enabled`` — whether the implicit flow may be used
    (Fig. 2a, "Client OAuth Login").  ``require_app_secret`` — whether Graph
    API calls must carry proof of the application secret (Fig. 2b, "Require
    App Secret").  An app is *susceptible* to token leakage and abuse when
    the first is on and the second is off (§2.2).
    """

    client_side_flow_enabled: bool = True
    require_app_secret: bool = False

    @property
    def is_susceptible(self) -> bool:
        return self.client_side_flow_enabled and not self.require_app_secret


@dataclass
class Application:
    """A registered third-party application."""

    app_id: str
    name: str
    secret: str
    redirect_uri: str
    security: AppSecuritySettings = field(default_factory=AppSecuritySettings)
    approved_permissions: PermissionScope = field(
        default_factory=PermissionScope.basic
    )
    token_lifetime: TokenLifetime = TokenLifetime.SHORT_TERM
    monthly_active_users: int = 0
    daily_active_users: int = 0

    def check_secret(self, candidate: str) -> bool:
        return candidate == self.secret

    @property
    def is_susceptible(self) -> bool:
        """Exploitable for reputation manipulation (§2.2 criteria)."""
        return (self.security.is_susceptible
                and self.approved_permissions.contains(
                    Permission.PUBLISH_ACTIONS))


class ApplicationRegistry:
    """All applications registered on the platform."""

    def __init__(self) -> None:
        self._apps: Dict[str, Application] = {}
        self._counter = 0

    def __len__(self) -> int:
        return len(self._apps)

    def __iter__(self):
        return iter(self._apps.values())

    def _mint_secret(self, app_id: str) -> str:
        return hashlib.sha256(f"secret|{app_id}".encode()).hexdigest()[:32]

    def register(self, name: str, redirect_uri: str,
                 security: Optional[AppSecuritySettings] = None,
                 approved_permissions: Optional[PermissionScope] = None,
                 token_lifetime: TokenLifetime = TokenLifetime.SHORT_TERM,
                 monthly_active_users: int = 0,
                 daily_active_users: int = 0,
                 app_id: Optional[str] = None) -> Application:
        """Register an application and return it.

        ``app_id`` may be pinned (used to reproduce the numeric ids from
        Tables 1 and 3); otherwise a sequential id is allocated.
        """
        if app_id is None:
            self._counter += 1
            app_id = f"app:{self._counter}"
        if app_id in self._apps:
            raise ValueError(f"application id already registered: {app_id}")
        app = Application(
            app_id=app_id,
            name=name,
            secret=self._mint_secret(app_id),
            redirect_uri=redirect_uri,
            security=security or AppSecuritySettings(),
            approved_permissions=(approved_permissions
                                  or PermissionScope.basic()),
            token_lifetime=token_lifetime,
            monthly_active_users=monthly_active_users,
            daily_active_users=daily_active_users,
        )
        self._apps[app_id] = app
        return app

    def get(self, app_id: str) -> Application:
        app = self._apps.get(app_id)
        if app is None:
            raise UnknownApplicationError(app_id)
        return app

    def find_by_name(self, name: str) -> List[Application]:
        return [a for a in self._apps.values() if a.name == name]

    def top_by_mau(self, n: int) -> List[Application]:
        """The ``n`` applications with the most monthly active users."""
        ranked = sorted(self._apps.values(),
                        key=lambda a: a.monthly_active_users, reverse=True)
        return ranked[:n]
