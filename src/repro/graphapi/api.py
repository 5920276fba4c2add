"""The Graph API endpoint layer.

Enforcement order for write actions mirrors the real platform:

1. token validity (unknown / expired / invalidated → ``invalid_token``);
2. appsecret_proof if the app's settings require it (Fig. 2b);
3. permission scope (``publish_actions`` for likes/comments);
4. AS blocklist for protected apps (§6.4);
5. per-IP like limits (§6.4);
6. per-token action budget (§6.1);
7. the platform write itself.

Every request — successful or not — lands in the :class:`RequestLog`.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional

from repro.graphapi.errors import (
    ApiTimeout,
    AppSecretRequiredError,
    BlockedSourceError,
    GraphApiError,
    IpRateLimitError,
    PermissionDeniedError,
    RateLimitExceededError,
    TransientApiError,
)
from repro.graphapi.log import RequestLog
from repro.graphapi.ratelimit import (
    PolicyEnforcer,
    RateLimitPolicy,
    drop_expired,
)
from repro.graphapi.request import (
    LIKE_ACTIONS,
    WRITE_ACTIONS,
    ApiAction,
    ApiRequest,
    ApiResponse,
)
from repro.netsim.asn import AsRegistry
from repro.oauth.redact import redact_token
from repro.oauth.apps import ApplicationRegistry
from repro.oauth.errors import InvalidTokenError
from repro.oauth.proof import verify_appsecret_proof
from repro.oauth.scopes import Permission
from repro.oauth.tokens import AccessToken, TokenStore
from repro.sim.clock import SimClock
from repro.socialnet.errors import SocialNetworkError
from repro.socialnet.platform import SocialPlatform
from repro.telemetry.registry import TELEMETRY
from repro.telemetry.tracing import TRACER


class GraphApi:
    """Authenticated API over a :class:`SocialPlatform`."""

    #: The memo left out of the state: the IP->ASN memo is a cache over
    #: static pools, so the deltas carry only the charge counters.
    _TRANSIENT = ("_asn_cache",)

    def __init__(self, clock: SimClock, platform: SocialPlatform,
                 apps: ApplicationRegistry, tokens: TokenStore,
                 as_registry: Optional[AsRegistry] = None,
                 policy: Optional[RateLimitPolicy] = None) -> None:
        self.clock = clock
        self.platform = platform
        self.apps = apps
        self.tokens = tokens
        self.as_registry = as_registry
        self.policy = policy or RateLimitPolicy()
        self.enforcer = PolicyEnforcer(self.policy)
        self.log = RequestLog()
        #: Fault injector (:class:`repro.faults.FaultInjector`) or None.
        #: ``None`` keeps every request path fault-free at the cost of a
        #: single attribute check — an empty plan is byte-identical to a
        #: build without the subsystem.
        self.faults = None
        #: Aggregate counters for the charge-only path (see
        #: DeliveryWave.charge).
        self.charge_counters: Dict[str, int] = {"likes": 0}
        # Source IPs are drawn from static pools, so IP->ASN memoizes well.
        self._asn_cache: Dict[str, Optional[int]] = {}

    # ------------------------------------------------------------------
    # Core dispatch
    # ------------------------------------------------------------------
    def execute(self, request: ApiRequest) -> ApiResponse:
        """Validate, enforce limits, perform the action, and log it."""
        now = self.clock.now()
        token: Optional[AccessToken] = None
        outcome = "ok"
        asn: Optional[int] = None
        asn_resolved = False
        try:
            inj = self.faults
            if inj is not None:
                fault = inj.decide(request.action.name,
                                   request.access_token)
                if fault is not None:
                    # invalidate_token already flipped the token in the
                    # store; validation below surfaces it naturally.
                    self._raise_fault(fault, request.access_token)
            token = self.tokens.validate(request.access_token)
            app = self.apps.get(token.app_id)
            self._check_app_secret(app, request)
            self._check_permissions(token, request.action)
            asn = self._resolve_asn(request.source_ip)
            asn_resolved = True
            if request.action in LIKE_ACTIONS:
                if self.policy.is_as_blocked(app.app_id, asn):
                    raise BlockedSourceError(request.source_ip or "?", asn)
                violated = self.enforcer.admit_like(
                    token.token, request.source_ip, now)
                if violated == "token":
                    raise RateLimitExceededError(redact_token(token.token))
                if violated is not None:
                    raise IpRateLimitError(request.source_ip or "?", violated)
            elif request.action in WRITE_ACTIONS:
                if not self.enforcer.admit_token_action(token.token, now):
                    raise RateLimitExceededError(redact_token(token.token))
            data = self._perform(token, request)
            return ApiResponse(action=request.action, data=data)
        except InvalidTokenError:
            outcome = "invalid_token"
            raise
        except GraphApiError as error:
            outcome = error.code
            raise
        except SocialNetworkError:
            outcome = "platform_error"
            raise
        finally:
            if not asn_resolved:
                # Admission failed before reaching ASN resolution.
                asn = self._resolve_asn(request.source_ip)
            self.log.append_row(
                now, request.action, request.access_token,
                token.user_id if token else None,
                token.app_id if token else None,
                self._target_of(request), request.source_ip, asn, outcome)
            if TELEMETRY.enabled:
                action = request.action.name
                TELEMETRY.count("graphapi_requests_total",
                                action=action, outcome=outcome)
                if outcome != "ok":
                    TELEMETRY.count("graphapi_errors_total", code=outcome)

    @staticmethod
    def _raise_fault(fault: str, access_token: str) -> None:
        """Turn a fault-plan decision into the matching API failure."""
        if fault == "transient":
            raise TransientApiError()
        if fault == "timeout":
            raise ApiTimeout()
        if fault == "rate_limit":
            raise RateLimitExceededError(redact_token(access_token))
        # "invalidate_token": no direct failure here — the request
        # proceeds and dies through the normal invalid_token machinery.

    # ------------------------------------------------------------------
    # Wave admission (planned delivery waves; see collusion/network.py)
    # ------------------------------------------------------------------
    def delivery_wave(self, post_id: Optional[str] = None) -> "DeliveryWave":
        """Open a :class:`DeliveryWave` at the current clock instant.

        A wave covers a whole planned delivery round: per-entry
        verdicts with the semantics of :meth:`execute`'s like
        admission, but with token validity, app/proof/scope checks and
        rate-limit window capacities memoized per wave, and rate-limit
        charges plus request-log rows applied in bulk when the wave
        flushes."""
        return DeliveryWave(self, post_id)

    def _resolve_asn(self, source_ip: Optional[str]) -> Optional[int]:
        if source_ip is None or self.as_registry is None:
            return None
        cached = self._asn_cache.get(source_ip, "miss")
        if cached != "miss":
            return cached
        asn = self.as_registry.asn_of(source_ip)
        self._asn_cache[source_ip] = asn
        return asn

    @staticmethod
    def _target_of(request: ApiRequest) -> Optional[str]:
        for key in ("post_id", "page_id", "object_id", "app_id"):
            if key in request.params:
                return str(request.params[key])
        return None

    @staticmethod
    def _check_app_secret(app, request: ApiRequest) -> None:
        """Verify the HMAC-SHA256 appsecret_proof when required.

        The raw secret is also accepted (some SDKs send it directly),
        but a leaked bare token can produce neither.
        """
        if not app.security.require_app_secret:
            return
        proof = request.appsecret_proof
        if proof == app.secret:
            return
        if not verify_appsecret_proof(app.secret, request.access_token,
                                      proof or ""):
            raise AppSecretRequiredError(app.app_id)

    @staticmethod
    def _check_permissions(token: AccessToken, action: ApiAction) -> None:
        if action in (ApiAction.LIKE_POST, ApiAction.LIKE_PAGE,
                      ApiAction.COMMENT, ApiAction.CREATE_POST):
            if not token.grants(Permission.PUBLISH_ACTIONS):
                raise PermissionDeniedError(
                    Permission.PUBLISH_ACTIONS.value)
        elif action is ApiAction.GET_PROFILE:
            if not token.grants(Permission.PUBLIC_PROFILE):
                raise PermissionDeniedError(Permission.PUBLIC_PROFILE.value)

    def _perform(self, token: AccessToken,
                 request: ApiRequest) -> Dict[str, Any]:
        action = request.action
        params = request.params
        user_id = token.user_id
        app_id = token.app_id
        ip = request.source_ip
        if action is ApiAction.GET_PROFILE:
            return self.platform.get_account(user_id).public_profile()
        if action is ApiAction.GET_APP_STATS:
            app = self.apps.get(str(params["app_id"]))
            return {
                "id": app.app_id,
                "name": app.name,
                "monthly_active_users": app.monthly_active_users,
                "daily_active_users": app.daily_active_users,
            }
        if action is ApiAction.GET_OBJECT_LIKES:
            post = self.platform.get_post(str(params["post_id"]))
            return {"post_id": post.post_id, "likers": post.liker_ids()}
        if action is ApiAction.CREATE_POST:
            post = self.platform.create_post(
                user_id, str(params["text"]), via_app_id=app_id,
                source_ip=ip)
            return {"post_id": post.post_id}
        if action is ApiAction.LIKE_POST:
            like = self.platform.like_post(
                user_id, str(params["post_id"]), via_app_id=app_id,
                source_ip=ip)
            return {"object_id": like.target_id, "liker_id": like.actor_id}
        if action is ApiAction.LIKE_PAGE:
            like = self.platform.like_page(
                user_id, str(params["page_id"]), via_app_id=app_id,
                source_ip=ip)
            return {"object_id": like.target_id, "liker_id": like.actor_id}
        if action is ApiAction.COMMENT:
            comment = self.platform.comment_on_post(
                user_id, str(params["post_id"]), str(params["text"]),
                via_app_id=app_id, source_ip=ip)
            return {"comment_id": comment.comment_id}
        raise ValueError(f"unhandled action: {action}")  # pragma: no cover

    # ------------------------------------------------------------------
    # State transfer (shard deltas and campaign checkpoints)
    # ------------------------------------------------------------------
    def mark(self) -> Dict[str, int]:
        return dict(self.charge_counters)

    def export_delta(self, mark: Dict[str, int]) -> Dict[str, int]:
        """Charge-counter increments since ``mark``."""
        return {key: value - mark.get(key, 0)
                for key, value in self.charge_counters.items()
                if value != mark.get(key, 0)}

    def apply_delta(self, delta: Dict[str, int]) -> None:
        for key, value in delta.items():
            self.charge_counters[key] = (
                self.charge_counters.get(key, 0) + value)

    # ------------------------------------------------------------------
    # Convenience wrappers
    # ------------------------------------------------------------------
    def get_profile(self, access_token: str,
                    appsecret_proof: Optional[str] = None,
                    source_ip: Optional[str] = None) -> ApiResponse:
        return self.execute(ApiRequest(
            ApiAction.GET_PROFILE, access_token,
            appsecret_proof=appsecret_proof, source_ip=source_ip))

    def like_post(self, access_token: str, post_id: str,
                  appsecret_proof: Optional[str] = None,
                  source_ip: Optional[str] = None) -> ApiResponse:
        return self.execute(ApiRequest(
            ApiAction.LIKE_POST, access_token, {"post_id": post_id},
            appsecret_proof=appsecret_proof, source_ip=source_ip))

    def like_page(self, access_token: str, page_id: str,
                  appsecret_proof: Optional[str] = None,
                  source_ip: Optional[str] = None) -> ApiResponse:
        return self.execute(ApiRequest(
            ApiAction.LIKE_PAGE, access_token, {"page_id": page_id},
            appsecret_proof=appsecret_proof, source_ip=source_ip))

    def comment(self, access_token: str, post_id: str, text: str,
                appsecret_proof: Optional[str] = None,
                source_ip: Optional[str] = None) -> ApiResponse:
        return self.execute(ApiRequest(
            ApiAction.COMMENT, access_token,
            {"post_id": post_id, "text": text},
            appsecret_proof=appsecret_proof, source_ip=source_ip))

    def create_post(self, access_token: str, text: str,
                    appsecret_proof: Optional[str] = None,
                    source_ip: Optional[str] = None) -> ApiResponse:
        return self.execute(ApiRequest(
            ApiAction.CREATE_POST, access_token, {"text": text},
            appsecret_proof=appsecret_proof, source_ip=source_ip))

    def get_app_stats(self, access_token: str, app_id: str) -> ApiResponse:
        return self.execute(ApiRequest(
            ApiAction.GET_APP_STATS, access_token, {"app_id": app_id}))


class DeliveryWave:
    """Bulk admission context for one planned delivery wave.

    Every entry in a wave shares one clock instant, one application and
    (for platform writes) one target post, so the per-request pipeline
    of :meth:`GraphApi.execute` collapses: each entry reads its token
    (re-validated per entry, since a fault plan can kill a token
    mid-wave), the app and the ``publish_actions`` grant are memoized
    per wave on the token's app id and scope object, rate-limit
    windows become memoized
    per-(key, wave-timestamp) capacity transitions via
    :class:`~repro.graphapi.ratelimit.LikeWaveAdmitter`, and log rows /
    limiter hits / charge counters land in bulk at :meth:`finish`.

    Entries report rejections as verdict codes, not exceptions: once
    §6.1 tightens the token budget a campaign rejects millions of
    entries per simulated day.  The verdicts, bookkeeping order and
    RNG/fault-stream consumption are byte-identical to one
    :meth:`GraphApi.execute` admission per entry, which
    ``tests/test_batch_equivalence.py`` pins against a per-request
    reference.  Callers must :meth:`finish` the wave before anything
    else reads the request log or touches the like limiters.
    """

    __slots__ = (
        "api", "now", "post_id", "_inj", "_admitter", "_token_of",
        "_apps_get", "_policy", "_resolve", "_like_post",
        "_tokens", "_users", "_apps", "_ips", "_asns", "_outcomes",
        "_charged", "_finished", "_app_id", "_app", "_proof_skip",
        "_scope", "_granted",
        "_attempts", "_denied_token", "_denied_ip", "_span",
    )

    def __init__(self, api: GraphApi, post_id: Optional[str]) -> None:
        self.api = api
        self.now = api.clock._now
        self.post_id = post_id
        self._inj = api.faults
        self._admitter = api.enforcer.like_wave(self.now)
        # The token store's own dict lookup, as TokenStore.peek makes.
        self._token_of = api.tokens._tokens.get
        self._apps_get = api.apps.get
        self._policy = api.policy
        self._resolve = api._resolve_asn
        self._like_post = api.platform.like_post
        # Row buffers (parallel, in request order) for the like path.
        self._tokens: List[str] = []
        self._users: List[Optional[str]] = []
        self._apps: List[Optional[str]] = []
        self._ips: List[Optional[str]] = []
        self._asns: List[Optional[int]] = []
        self._outcomes: List[str] = []
        self._charged = 0
        self._finished = False
        # Wave-shape tallies (plain ints, maintained unconditionally so
        # telemetry enablement cannot perturb the execution path).
        self._attempts = 0
        self._denied_token = 0
        self._denied_ip = 0
        self._span = TRACER.begin("wave")
        # Waves span one network whose members share an app and its
        # approved scope object, so the app (with its proof requirement)
        # and the publish grant memoize on the last token's app id and
        # scope (see _memo_app).
        self._app_id = None
        self._app = None
        self._proof_skip = False
        self._scope = None
        self._granted = False

    # ------------------------------------------------------------------
    def _memo_app(self, token: AccessToken) -> None:
        """Memoize ``token``'s app, whether that app skips the proof,
        and whether ``token``'s scope grants ``publish_actions``."""
        app_id = token.app_id
        if app_id != self._app_id:
            self._app_id = app_id
            app = self._app = self._apps_get(app_id)
            self._proof_skip = not app.security.require_app_secret
        scope = token.scope
        if scope is not self._scope:
            self._scope = scope
            self._granted = scope.contains(Permission.PUBLISH_ACTIONS)

    def charge(self, access_token: str,
               source_ip: Optional[str] = None) -> Optional[str]:
        """Run a like's admission path without the platform write.

        Models a network's bulk workload (likes on arbitrary member
        posts): the fault plan's ``CHARGE_LIKE`` rules, token validity,
        app-secret proof, scope, AS blocks and IP/token rate limits are
        enforced and charged as in :meth:`GraphApi.execute`, but no
        content is materialized and nothing is appended to the request
        log; the limiter charge is pending until :meth:`finish`, and
        admitted charges land in :attr:`GraphApi.charge_counters`.
        Returns ``None`` when admitted, else ``"transient"`` /
        ``"timeout"`` / ``"invalid_token"`` / ``"app_secret"`` /
        ``"permission"`` / ``"blocked"`` / ``"token_limit"`` /
        ``"ip_limit"``.

        This is the single hottest call in a campaign (millions of
        background charges per simulated day, most of them rejected once
        the §6.1 budget saturates), so the token-only admission is fully
        inlined."""
        self._attempts += 1
        inj = self._inj
        if inj is not None:
            fault = inj.decide("CHARGE_LIKE", access_token)
            if fault == "transient":
                return "transient"
            if fault == "timeout":
                return "timeout"
            if fault == "rate_limit":
                self._denied_token += 1
                return "token_limit"
        now = self.now
        token = self._token_of(access_token)
        if token is None or token.invalidated or now >= token.expires_at:
            return "invalid_token"
        if token.app_id != self._app_id or token.scope is not self._scope:
            self._memo_app(token)
        if not self._proof_skip:
            if not verify_appsecret_proof(self._app.secret, access_token,
                                          ""):
                return "app_secret"
        if not self._granted:
            return "permission"
        policy = self._policy
        if policy.blocked_asns_by_app:
            if policy.is_as_blocked(token.app_id, self._resolve(source_ip)):
                return "blocked"
        adm = self._admitter
        if adm.token_only:
            rooms = adm._rooms
            room = rooms.get(access_token)
            if room is None:
                # First touch this wave: resolve the token's remaining
                # window capacity (LikeWaveAdmitter._room_of, inlined).
                limiter = adm._token_limiter
                until = limiter._saturated_until.get(access_token)
                if until is not None:
                    if now < until:
                        rooms[access_token] = -1
                        self._denied_token += 1
                        return "token_limit"
                    del limiter._saturated_until[access_token]
                events = limiter._events.get(access_token)
                if events is None:
                    events = limiter._events[access_token] = []
                else:
                    horizon = now - limiter.window_seconds
                    if events and events[0] <= horizon:
                        drop_expired(events, horizon)
                adm._events[access_token] = events
                room = limiter.limit - len(events)
                if room <= 0:
                    limiter.mark_saturated(access_token, events)
                    rooms[access_token] = -1
                    self._denied_token += 1
                    return "token_limit"
            elif room <= 0:
                if room == 0:
                    adm._exhaust(adm._token_limiter, access_token, rooms,
                                 adm._events, adm._pending)
                self._denied_token += 1
                return "token_limit"
            rooms[access_token] = room - 1
            pending = adm._pending
            pending[access_token] = pending.get(access_token, 0) + 1
        else:
            violated = adm.admit(access_token, source_ip)
            if violated is not None:
                if violated == "token":
                    self._denied_token += 1
                    return "token_limit"
                self._denied_ip += 1
                return "ip_limit"
        self._charged += 1
        return None

    def like(self, access_token: str,
             source_ip: Optional[str]) -> Optional[str]:
        """:meth:`GraphApi.like_post` against the wave's target post:
        the same pipeline, log row and platform write, with the row
        buffered until :meth:`finish`.  Returns ``None`` when the like
        landed, else :meth:`charge`'s codes plus ``"platform_error"``."""
        self._attempts += 1
        inj = self._inj
        push_token = self._tokens.append
        push_user = self._users.append
        push_app = self._apps.append
        push_ip = self._ips.append
        push_asn = self._asns.append
        push_outcome = self._outcomes.append
        if inj is not None:
            fault = inj.decide("LIKE_POST", access_token)
            if fault is not None and fault != "invalidate_token":
                # The request dies before authentication, so the row
                # carries no user/app attribution, like a real 5xx.
                push_token(access_token)
                push_user(None)
                push_app(None)
                push_ip(source_ip)
                push_asn(self._resolve(source_ip))
                if fault == "transient":
                    push_outcome(TransientApiError.code)
                    return "transient"
                if fault == "timeout":
                    push_outcome(ApiTimeout.code)
                    return "timeout"
                push_outcome(RateLimitExceededError.code)
                self._denied_token += 1
                return "token_limit"
        token = self._token_of(access_token)
        asn = self._resolve(source_ip)
        push_token(access_token)
        push_ip(source_ip)
        push_asn(asn)
        if (token is None or token.invalidated
                or self.now >= token.expires_at):
            push_user(None)
            push_app(None)
            push_outcome("invalid_token")
            return "invalid_token"
        user_id = token.user_id
        app_id = token.app_id
        push_user(user_id)
        push_app(app_id)
        if app_id != self._app_id or token.scope is not self._scope:
            self._memo_app(token)
        if not self._proof_skip:
            if not verify_appsecret_proof(self._app.secret, access_token,
                                          ""):
                push_outcome(AppSecretRequiredError.code)
                return "app_secret"
        if not self._granted:
            push_outcome(PermissionDeniedError.code)
            return "permission"
        policy = self._policy
        if policy.blocked_asns_by_app and policy.is_as_blocked(app_id, asn):
            push_outcome(BlockedSourceError.code)
            return "blocked"
        violated = self._admitter.admit(access_token, source_ip)
        if violated is not None:
            if violated == "token":
                push_outcome(RateLimitExceededError.code)
                self._denied_token += 1
                return "token_limit"
            push_outcome(IpRateLimitError.code)
            self._denied_ip += 1
            return "ip_limit"
        try:
            self._like_post(user_id, self.post_id, app_id, source_ip)
        except SocialNetworkError:
            push_outcome("platform_error")
            return "platform_error"
        push_outcome("ok")
        return None

    def finish(self) -> None:
        """Flush pending limiter charges, log rows and counters.

        Idempotent; the wave must not be used again afterwards (any
        later limiter traffic invalidates its memoized window
        capacities, so callers open a fresh wave)."""
        if self._finished:
            return
        self._finished = True
        self._admitter.flush()
        if self._tokens:
            self.api.log.extend_like_rows(
                self.now, ApiAction.LIKE_POST, self.post_id, self._tokens,
                self._users, self._apps, self._ips, self._asns,
                self._outcomes)
        if self._charged:
            self.api.charge_counters["likes"] += self._charged
        if TELEMETRY.enabled:
            self._report_telemetry()
        span = self._span
        if span is not None:
            span.args["attempts"] = self._attempts
            span.args["charged"] = self._charged
            span.args["denied"] = self._denied_token + self._denied_ip
        TRACER.end(span)

    def _report_telemetry(self) -> None:
        """Fold the wave's shape into the metrics registry (enabled
        runs only; the tallies themselves are always maintained)."""
        stage = TELEMETRY.current_stage()
        TELEMETRY.observe("wave_size", self._attempts, stage=stage)
        TELEMETRY.observe("wave_limiter_denials",
                          self._denied_token + self._denied_ip,
                          stage=stage)
        if self._denied_token:
            TELEMETRY.count("ratelimit_denials_total", self._denied_token,
                            window="token")
        if self._denied_ip:
            TELEMETRY.count("ratelimit_denials_total", self._denied_ip,
                            window="ip")
        if self._charged:
            TELEMETRY.count("wave_charges_total", self._charged,
                            outcome="ok")
        for outcome, events in sorted(Counter(self._outcomes).items()):
            TELEMETRY.count("wave_likes_total", events, outcome=outcome)
