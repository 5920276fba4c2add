"""The collusion network's web frontend — the Fig. 3 workflow, stepwise.

The paper's Fig. 3 shows what a colluding user actually does:

1. open the collusion network's website, click "install app";
2. get redirected to the platform's authorization dialog, grant the
   permissions, install the application;
3. click "get access token": the site redirects to the dialog with
   ``view-source:`` prepended so the browser *displays* the redirect
   instead of following it, leaving ``#access_token=...`` in the
   address bar;
4. manually copy the token and paste it into the site's textbox;
5. land on the admin panel and request likes/comments — solving a
   CAPTCHA and sitting through ad redirects as demanded.

:class:`CollusionWebsiteSession` enforces that ordering (each step
checks its precondition) and the admin panel enforces the evasion gates
(CAPTCHA, inter-request delay) before handing the request to the
network's delivery engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.collusion.network import CollusionNetwork, DeliveryReport
from repro.oauth.server import AuthorizationRequest


class WorkflowError(RuntimeError):
    """A Fig. 3 step was attempted out of order or without its gate."""


@dataclass
class AdRedirect:
    """One monetization hop the user is bounced through."""

    url: str
    seconds: int


class CollusionWebsiteSession:
    """One user's browser session against a collusion network site."""

    def __init__(self, network: CollusionNetwork, user_id: str) -> None:
        self.network = network
        self.user_id = user_id
        self.world = network.world
        self._visited = False
        self._installed = False
        self._token_in_address_bar: Optional[str] = None
        self._submitted = False
        self._captcha_pending = False
        self._next_request_at = 0

    # ------------------------------------------------------------------
    # Steps 1-2: visit and install
    # ------------------------------------------------------------------
    def open_site(self) -> str:
        """Step 1: load the landing page (counts a short-URL click)."""
        account = self.world.platform.get_account(self.user_id)
        if self.network.short_url_slug is not None:
            self.world.shortener.click(self.network.short_url_slug,
                                       referrer=self.network.domain,
                                       country=account.country)
        self._visited = True
        return f"https://{self.network.domain}/"

    def install_app(self) -> str:
        """Step 2: follow the install redirect and authorize the app."""
        if not self._visited:
            raise WorkflowError("open the site before installing the app")
        app = self.network.app
        result = self.world.auth_server.authorize(
            AuthorizationRequest(app.app_id, app.redirect_uri, "token",
                                 app.approved_permissions),
            self.user_id)
        self._installed = True
        # The install redirect is followed; the site does not see the
        # token yet — that is what step 3's view-source trick is for.
        return result.redirect_url

    # ------------------------------------------------------------------
    # Step 3: the view-source trick
    # ------------------------------------------------------------------
    def click_get_access_token(self) -> str:
        """Step 3: the site opens the dialog with ``view-source:`` so the
        redirect URL (with the token fragment) stays in the address bar."""
        if not self._installed:
            raise WorkflowError("install the application first")
        app = self.network.app
        result = self.world.auth_server.authorize(
            AuthorizationRequest(app.app_id, app.redirect_uri, "token",
                                 app.approved_permissions),
            self.user_id)
        self._token_in_address_bar = result.token_from_fragment()
        return f"view-source:{result.redirect_url}"

    def copy_token_from_address_bar(self) -> str:
        """The manual copy of ``#access_token=...``."""
        if self._token_in_address_bar is None:
            raise WorkflowError("no token in the address bar yet")
        return self._token_in_address_bar

    # ------------------------------------------------------------------
    # Step 4: submit the token
    # ------------------------------------------------------------------
    def submit_token(self, token: str) -> None:
        """Paste the token into the site's textbox; the site stores it."""
        if not self._visited:
            raise WorkflowError("open the site first")
        validated = self.world.tokens.validate(token)
        if validated.user_id != self.user_id:
            raise WorkflowError("token does not belong to this user")
        self.network._store_member(self.user_id, token)
        self.network.total_joins += 1
        self._submitted = True

    # ------------------------------------------------------------------
    # Step 5: the admin panel
    # ------------------------------------------------------------------
    def ad_redirects(self) -> list:
        """The monetization hops before the request form (§5.1)."""
        gate = self.network.profile.gate
        return [AdRedirect(url=f"https://redirect-{i + 1}.example/ads",
                           seconds=5)
                for i in range(gate.redirect_hops)]

    def request_captcha(self) -> Optional[int]:
        """CAPTCHA challenge guarding the request form, if the site uses
        one; returns a challenge id."""
        if not self._submitted:
            raise WorkflowError("submit an access token first")
        if not self.network.profile.gate.captcha_required:
            return None
        self._captcha_pending = True
        return self.world.clock.now()  # challenge id: issue time

    def solve_captcha(self, solution_ok: bool = True) -> None:
        if not self._captcha_pending:
            raise WorkflowError("no CAPTCHA outstanding")
        if not solution_ok:
            raise WorkflowError("CAPTCHA failed")
        self._captcha_pending = False

    def request_likes(self, post_id: str) -> DeliveryReport:
        """Submit the like request, honoring every gate."""
        if not self._submitted:
            raise WorkflowError("submit an access token first")
        gate = self.network.profile.gate
        now = self.world.clock.now()
        if gate.captcha_required and self._captcha_pending:
            raise WorkflowError("solve the CAPTCHA first")
        if now < self._next_request_at:
            raise WorkflowError(
                f"wait {self._next_request_at - now}s between requests")
        report = self.network.submit_like_request(self.user_id, post_id)
        self._next_request_at = now + gate.delay_for(self.network.rng)  # reprolint: disable=RL202 — the website is the network's own front door, not a peer entity: pacing must consume the network stream so browser-path and direct-path runs draw identically
        if gate.captcha_required:
            self._captcha_pending = True  # next request needs a new one
        return report

    # ------------------------------------------------------------------
    def run_full_workflow(self, post_id: str) -> DeliveryReport:
        """Convenience: execute Fig. 3 end to end for one like request."""
        self.open_site()
        self.install_app()
        self.click_get_access_token()
        token = self.copy_token_from_address_bar()
        self.submit_token(token)
        for _ in self.ad_redirects():
            pass  # the user sits through the ads
        if self.request_captcha() is not None:
            self.solve_captcha()
        return self.request_likes(post_id)
