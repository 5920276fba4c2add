"""The simulated world: every platform subsystem, wired together."""

from __future__ import annotations

from typing import Optional

from repro.core.config import StudyConfig
from repro.faults.plan import FaultInjector
from repro.graphapi.api import GraphApi
from repro.graphapi.ratelimit import RateLimitPolicy
from repro.netsim.asn import AsRegistry
from repro.netsim.geo import GeoDatabase
from repro.netsim.pools import IpPoolAllocator
from repro.oauth.apps import ApplicationRegistry
from repro.oauth.review import AppReviewProcess
from repro.oauth.server import AuthorizationServer
from repro.oauth.tokens import TokenStore
from repro.shorturl.shortener import UrlShortener
from repro.sim.clock import SimClock
from repro.sim.events import EventScheduler
from repro.sim.ids import IdAllocator
from repro.sim.rng import RngFactory
from repro.socialnet.platform import SocialPlatform
from repro.webintel.adnetworks import AdScanner
from repro.webintel.alexa import TrafficRanker
from repro.webintel.whois import WhoisRegistry


class World:
    """One self-consistent simulation universe.

    Construction wires the subsystems but creates no content; population
    (apps, networks, member accounts) is done by the builders in
    :mod:`repro.apps.catalog` and :mod:`repro.collusion.profiles`, usually
    through :class:`repro.core.study.Study`.
    """

    def __init__(self, config: Optional[StudyConfig] = None) -> None:
        self.config = config or StudyConfig()
        self.rng = RngFactory(self.config.seed)
        self.clock = SimClock()
        self.ids = IdAllocator()
        self.scheduler = EventScheduler(self.clock)

        # Platform core.
        self.platform = SocialPlatform(self.clock, self.ids)
        self.apps = ApplicationRegistry()
        self.tokens = TokenStore(self.clock)
        self.auth_server = AuthorizationServer(
            self.clock, self.apps, self.tokens)
        self.app_review = AppReviewProcess()

        # Network substrate.
        self.as_registry = AsRegistry()
        self.geo = GeoDatabase()
        self.ip_allocator = IpPoolAllocator(self.as_registry)

        # The API everything abusive and defensive flows through.
        self.policy = RateLimitPolicy()
        self.api = GraphApi(
            self.clock, self.platform, self.apps, self.tokens,
            as_registry=self.as_registry, policy=self.policy)

        # Fault injection: only built (and only consuming its dedicated
        # RNG stream) when the config carries a non-empty plan, so the
        # default world stays byte-identical to a fault-free build.
        self.faults: Optional[FaultInjector] = None
        plan = self.config.fault_plan
        if plan:
            self.faults = FaultInjector(
                plan, self.rng.stream("faults"), self.clock, self.tokens)
            self.api.faults = self.faults

        # Third-party web services.
        self.shortener = UrlShortener(self.clock)
        self.whois = WhoisRegistry()
        self.traffic_ranker = TrafficRanker()
        self.ad_scanner = AdScanner()

    def advance_days(self, days: float) -> None:
        """Advance simulated time, firing any scheduled events."""
        from repro.sim.clock import DAY

        self.scheduler.run_until(self.clock.now() + int(days * DAY))
