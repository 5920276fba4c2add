"""Per-network parameters, calibrated from the paper's published tables.

Encodes three datasets:

* :data:`TABLE2_SITES` — the 50 collusion-network sites with Alexa-style
  ranks and top-country visitor shares (Table 2, as printed — the paper's
  list contains two duplicate domains, which we keep for fidelity and
  dedupe where required);
* :data:`MILKED_PROFILES` — full behavioural profiles for the 22 networks
  the honeypots joined, with Table 4's workload numbers, Table 6's comment
  styles and the §6 network-infrastructure facts (IP pool sizes, ASes);
* :data:`SHORT_URL_SEEDS` — the 13 short URLs of Table 5 with their
  creation dates and click histories.

Membership pools are *calibrated*: Table 4's "membership size" is the
number of unique accounts the honeypots observed, which under random
token-pool sampling is a lower bound on the true pool.  The calibration
inverts the coverage formula ``U = P * (1 - exp(-L / P))`` (unique
accounts U after L like draws from a pool of size P) so that the
simulated milking campaign *observes* the paper's membership numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.collusion.comments import CommentStyle
from repro.collusion.evasion import RequestGate

# ---------------------------------------------------------------------------
# Autonomous systems used by collusion networks (§6.4)
# ---------------------------------------------------------------------------

#: (asn, name, country, is_bulletproof, base /16 prefix)
AS_PLAN: Tuple[Tuple[int, str, str, bool, str], ...] = (
    (64500, "BulletShield Hosting", "RU", True, "10.50.0.0"),
    (64501, "ArmorHost Networks", "UA", True, "10.51.0.0"),
    (64510, "GenericCloud", "US", False, "10.60.0.0"),
    (64511, "WebHostCo", "DE", False, "10.61.0.0"),
    (64512, "CheapVPS International", "NL", False, "10.62.0.0"),
    (64513, "SubcontinentHosting", "IN", False, "10.63.0.0"),
)

#: hublaa.me's pool spans the two bulletproof ASes (Fig. 8b).
BULLETPROOF_ASNS: Tuple[int, int] = (64500, 64501)


# ---------------------------------------------------------------------------
# Applications exploited by the networks
# ---------------------------------------------------------------------------

HTC_SENSE = "41158896424"
NOKIA_ACCOUNT = "200758583311692"
SONY_XPERIA = "104018109673165"
#: "Page Manager For iOS" appears only in Table 5 (used by autolike.vn);
#: it is registered as an extra susceptible app outside the top 100.
PAGE_MANAGER_IOS = "210831918949520"

#: Extra susceptible apps to register beyond the AppCatalog
#: (app_id, name, MAU, DAU).
EXTRA_APP_SPECS: Tuple[Tuple[str, str, int, int], ...] = (
    (PAGE_MANAGER_IOS, "Page Manager For iOS", 500_000, 50_000),
)


# ---------------------------------------------------------------------------
# Table 2 — the 50 collusion network sites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SiteListing:
    """One Table 2 row."""

    domain: str
    alexa_rank: int  # absolute rank (the paper prints thousands)
    top_country: Optional[str]
    top_country_share: Optional[float]


def _row(domain: str, rank_k: float, country: Optional[str],
         share_pct: Optional[float]) -> SiteListing:
    return SiteListing(domain, int(rank_k * 1000), country,
                       None if share_pct is None else share_pct / 100.0)


TABLE2_SITES: Tuple[SiteListing, ...] = (
    _row("hublaa.me", 8, "IN", 18),
    _row("official-liker.net", 17, "IN", 26),
    _row("djliker.com", 39, "IN", 55),
    _row("autolikesgroups.com", 54, "IN", 30),
    _row("myliker.com", 55, "IN", 45),
    _row("mg-likers.com", 56, "IN", 50),
    _row("4liker.com", 81, "IN", 33),
    _row("fb-autolikers.com", 99, "IN", 44),
    _row("autolikerfb.com", 109, "IN", 62),
    _row("cyberlikes.com", 119, "IN", 78),
    _row("postliker.net", 132, "IN", 63),
    _row("oneliker.com", 136, "IN", 58),
    _row("f8-autoliker.com", 136, "IN", 74),
    _row("postlikers.com", 148, "IN", 83),
    _row("fblikess.com", 150, "IN", 64),
    _row("way2likes.com", 154, "IN", 74),
    _row("kdliker.com", 154, "IN", 80),
    _row("topautolike.com", 192, "IN", 60),
    _row("royaliker.net", 201, "IN", 86),
    _row("begeniyor.com", 205, "TR", 85),
    _row("autolike-us.com", 227, "IN", 52),
    _row("royaliker.net", 210, "IN", 59),  # duplicate as printed
    _row("autolike.in", 216, "IN", 74),
    _row("likelikego.com", 232, "IN", 52),
    _row("myfbliker.com", 238, "IN", 58),
    _row("vliker.com", 273, "IN", 43),
    _row("likermoo.com", 296, "IN", 62),
    _row("f8liker.com", 296, "IN", 80),
    _row("facebook-autoliker.com", 312, "IN", 87),
    _row("kingliker.com", 351, "IN", 72),
    _row("likeslo.net", 373, "IN", 61),
    _row("machineliker.com", 386, "IN", 59),
    _row("likerty.com", 393, "IN", 60),
    _row("monkeyliker.com", 410, "IN", 80),
    _row("vipautoliker.com", 448, "IN", 64),
    _row("likelo.me", 479, "IN", 16),
    _row("loveliker.com", 491, "IN", 59),
    _row("autoliker.com", 496, "IN", 56),
    _row("likerhub.com", 498, "IN", 69),
    _row("monsterlikes.com", 509, "IN", 82),
    _row("hacklike.net", 514, "VN", 57),
    _row("rockliker.net", 530, "IN", 92),
    _row("likepana.com", 545, "IN", 57),
    _row("autolikesub.com", 603, "VN", 92),
    _row("extreamliker.com", 687, "IN", 50),
    _row("autolikesub.com", 721, "VN", 84),  # duplicate as printed
    _row("autolike.vn", 969, "VN", 94),
    _row("fast-liker.com", 1208, None, None),
    _row("arabfblike.com", 1221, "EG", 43),
    _row("realliker.com", 1379, None, None),
)


def unique_table2_sites() -> List[SiteListing]:
    """Table 2 rows deduplicated by domain (first occurrence wins)."""
    seen = set()
    unique: List[SiteListing] = []
    for site in TABLE2_SITES:
        if site.domain not in seen:
            seen.add(site.domain)
            unique.append(site)
    return unique


# ---------------------------------------------------------------------------
# Membership pool calibration
# ---------------------------------------------------------------------------

def calibrate_pool_size(unique_target: int, total_draws: int) -> int:
    """Invert ``U = P * (1 - exp(-L/P))`` for the true pool size ``P``.

    ``unique_target`` is Table 4's membership size (what the honeypots
    observed); ``total_draws`` is the number of like draws the milking
    campaign makes (posts x likes/post).  Monotone in ``P`` with
    supremum ``total_draws``, so a bisection suffices.
    """
    if unique_target <= 0:
        raise ValueError("unique_target must be positive")
    if total_draws < unique_target:
        raise ValueError(
            f"cannot observe {unique_target} uniques with only "
            f"{total_draws} draws"
        )

    def observed(pool: float) -> float:
        return pool * (1.0 - math.exp(-total_draws / pool))

    lo, hi = float(unique_target), float(unique_target)
    while observed(hi) < unique_target and hi < unique_target * 1e6:
        hi *= 2
    for _ in range(80):
        mid = (lo + hi) / 2
        if observed(mid) < unique_target:
            lo = mid
        else:
            hi = mid
    return int(round(hi))


def calibrate_pool_size_by_requests(unique_target: int, requests: int,
                                    likes_per_request: int) -> int:
    """Invert the per-request coverage formula for the pool size ``P``.

    Each request draws ``likes_per_request`` *distinct* members, so after
    ``R`` requests the expected unique count is
    ``U = P * (1 - (1 - L/P) ** R)``.  This matters at small scale, where
    a single request can cover most of the pool and the Poisson
    approximation of :func:`calibrate_pool_size` undershoots.
    """
    if unique_target <= 0:
        raise ValueError("unique_target must be positive")
    if requests <= 0 or likes_per_request <= 0:
        raise ValueError("requests and likes_per_request must be positive")
    if requests * likes_per_request < unique_target:
        raise ValueError(
            f"cannot observe {unique_target} uniques with "
            f"{requests} x {likes_per_request} draws"
        )

    def observed(pool: float) -> float:
        take = min(likes_per_request, pool)
        return pool * (1.0 - (1.0 - take / pool) ** requests)

    lo, hi = float(unique_target), float(unique_target)
    while observed(hi) < unique_target and hi < unique_target * 1e6:
        hi *= 2
    for _ in range(80):
        mid = (lo + hi) / 2
        if observed(mid) < unique_target:
            lo = mid
        else:
            hi = mid
    return max(unique_target, int(round(hi)))


# ---------------------------------------------------------------------------
# The 22 milked networks (Table 4 + Table 6 + §6 infrastructure)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollusionNetworkProfile:
    """Everything needed to instantiate one collusion network."""

    domain: str
    app_id: str
    # Table 4 milking workload & outcomes (paper scale).
    posts_milked: int
    likes_per_request: int
    membership_target: int
    outgoing_activities: int
    outgoing_target_accounts: int
    outgoing_target_pages: int
    # Request friction & availability.
    gate: RequestGate = field(default_factory=RequestGate)
    daily_request_limit: Optional[int] = None
    outage_rate: float = 0.0  # chance a request hits an outage
    # Comments (Table 6); None = no auto-comment service.
    comment_style: Optional[CommentStyle] = None
    comments_per_post: int = 0
    comment_posts_milked: int = 0
    # Delivery engine behaviour.
    retry_factor: float = 1.5
    token_reuse_bias: float = 0.0  # share of samples from the hot set
    hot_set_size: int = 40
    adaptation_days: int = 7  # days of errors before going uniform
    #: Anonymous member requests served per day through the charge-only
    #: path during the countermeasure campaign (the network's real
    #: workload beyond our honeypot requests).
    background_requests_per_day: int = 10
    # Replenishment in absolute members/day (§6.2: the daily trickle of
    # new and returning users is small compared to the pools).
    new_members_per_day: int = 20
    rejoins_per_day: int = 60
    # Network infrastructure (§6.4 / Fig. 8).
    ip_pool_size: int = 6
    asns: Tuple[int, ...] = (64510,)
    ip_usage: str = "zipf"  # "zipf" (few IPs dominate) or "uniform"
    # Ownership / web intel (§5).
    whois_privacy: bool = False
    registrant_country: Optional[str] = "IN"
    launch_days_before_epoch: int = 500

    def pool_size(self, scale: float = 1.0) -> int:
        """True member-pool size needed to observe the Table 4 membership.

        Uses the request-based coverage inversion so the calibration
        stays accurate even at scales where one request covers a large
        share of the pool.
        """
        requests = max(1, round(self.posts_milked * scale))
        target = max(1, int(self.membership_target * scale))
        if requests * self.likes_per_request <= target:
            return requests * self.likes_per_request
        return calibrate_pool_size_by_requests(
            target, requests, self.likes_per_request)


def _style(dictionary_size: int, mean_words: int, non_dict: float,
           punctuation: float = 0.25) -> CommentStyle:
    return CommentStyle(
        dictionary_size=dictionary_size,
        mean_words=mean_words,
        non_dictionary_rate=non_dict,
        punctuation_rate=punctuation,
    )


MILKED_PROFILES: Tuple[CollusionNetworkProfile, ...] = (
    CollusionNetworkProfile(
        domain="hublaa.me", app_id=HTC_SENSE,
        posts_milked=1421, likes_per_request=350, membership_target=294_949,
        outgoing_activities=145, outgoing_target_accounts=46,
        outgoing_target_pages=47,
        gate=RequestGate(min_delay=420, max_delay=600,
                         captcha_required=True, redirect_hops=2),
        token_reuse_bias=0.0,  # huge pool, uniform sampling (§6.1)
        retry_factor=1.2,
        background_requests_per_day=40,
        new_members_per_day=40, rejoins_per_day=120,
        ip_pool_size=6000, asns=BULLETPROOF_ASNS, ip_usage="uniform",
        whois_privacy=True, registrant_country=None,
        launch_days_before_epoch=180,
    ),
    CollusionNetworkProfile(
        domain="official-liker.net", app_id=HTC_SENSE,
        posts_milked=1757, likes_per_request=390, membership_target=233_161,
        outgoing_activities=1955, outgoing_target_accounts=846,
        outgoing_target_pages=253,
        gate=RequestGate(min_delay=300, max_delay=540,
                         captcha_required=True, redirect_hops=1),
        token_reuse_bias=0.7, hot_set_size=30, adaptation_days=7,
        background_requests_per_day=60,
        new_members_per_day=30, rejoins_per_day=90,
        ip_pool_size=8, asns=(64510,), ip_usage="zipf",
        whois_privacy=True, registrant_country=None,
        launch_days_before_epoch=600,
    ),
    CollusionNetworkProfile(
        domain="mg-likers.com", app_id=HTC_SENSE,
        posts_milked=1537, likes_per_request=247, membership_target=177_665,
        outgoing_activities=1524, outgoing_target_accounts=911,
        outgoing_target_pages=63,
        gate=RequestGate(min_delay=300, max_delay=600,
                         captcha_required=True, redirect_hops=2),
        comment_style=_style(16, 3, 0.20), comments_per_post=17,
        comment_posts_milked=120,
        token_reuse_bias=0.5, hot_set_size=60,
        ip_pool_size=12, asns=(64511,),
        registrant_country="IN", launch_days_before_epoch=510,
    ),
    CollusionNetworkProfile(
        domain="monkeyliker.com", app_id=HTC_SENSE,
        posts_milked=710, likes_per_request=233, membership_target=137_048,
        outgoing_activities=956, outgoing_target_accounts=356,
        outgoing_target_pages=19,
        daily_request_limit=10,
        comment_style=_style(45, 3, 0.22), comments_per_post=9,
        comment_posts_milked=115,
        ip_pool_size=6, asns=(64511,),
        registrant_country="IN", launch_days_before_epoch=420,
    ),
    CollusionNetworkProfile(
        domain="f8-autoliker.com", app_id=HTC_SENSE,
        posts_milked=1311, likes_per_request=253, membership_target=72_157,
        outgoing_activities=2542, outgoing_target_accounts=1254,
        outgoing_target_pages=118,
        gate=RequestGate(min_delay=300, max_delay=480),
        ip_pool_size=10, asns=(64512,),
        registrant_country="PK", launch_days_before_epoch=460,
    ),
    CollusionNetworkProfile(
        domain="djliker.com", app_id=HTC_SENSE,
        posts_milked=471, likes_per_request=149, membership_target=61_450,
        outgoing_activities=360, outgoing_target_accounts=316,
        outgoing_target_pages=23,
        daily_request_limit=10,
        comment_style=_style(52, 3, 0.20), comments_per_post=9,
        comment_posts_milked=104,
        ip_pool_size=5, asns=(64513,),
        registrant_country="IN", launch_days_before_epoch=510,
    ),
    CollusionNetworkProfile(
        domain="autolikesgroups.com", app_id=HTC_SENSE,
        posts_milked=774, likes_per_request=261, membership_target=41_015,
        outgoing_activities=1857, outgoing_target_accounts=885,
        outgoing_target_pages=189,
        ip_pool_size=7, asns=(64512,),
        whois_privacy=True, registrant_country=None,
        launch_days_before_epoch=380,
    ),
    CollusionNetworkProfile(
        domain="4liker.com", app_id=HTC_SENSE,
        posts_milked=269, likes_per_request=264, membership_target=23_110,
        outgoing_activities=2254, outgoing_target_accounts=1211,
        outgoing_target_pages=301,
        ip_pool_size=6, asns=(64513,),
        registrant_country="IN", launch_days_before_epoch=540,
    ),
    CollusionNetworkProfile(
        domain="myliker.com", app_id=HTC_SENSE,
        posts_milked=320, likes_per_request=102, membership_target=18_514,
        outgoing_activities=1727, outgoing_target_accounts=983,
        outgoing_target_pages=33,
        comment_style=_style(42, 3, 0.16), comments_per_post=19,
        comment_posts_milked=128,
        ip_pool_size=4, asns=(64513,),
        registrant_country="IN", launch_days_before_epoch=430,
    ),
    CollusionNetworkProfile(
        domain="kdliker.com", app_id=HTC_SENSE,
        posts_milked=599, likes_per_request=138, membership_target=18_421,
        outgoing_activities=1444, outgoing_target_accounts=626,
        outgoing_target_pages=79,
        comment_style=_style(31, 3, 0.28), comments_per_post=47,
        comment_posts_milked=119,
        ip_pool_size=5, asns=(64511,),
        registrant_country="IN", launch_days_before_epoch=400,
    ),
    CollusionNetworkProfile(
        domain="oneliker.com", app_id=HTC_SENSE,
        posts_milked=334, likes_per_request=72, membership_target=18_013,
        outgoing_activities=956, outgoing_target_accounts=483,
        outgoing_target_pages=81,
        ip_pool_size=4, asns=(64510,),
        registrant_country="IN", launch_days_before_epoch=310,
    ),
    CollusionNetworkProfile(
        domain="fb-autolikers.com", app_id=NOKIA_ACCOUNT,
        posts_milked=244, likes_per_request=80, membership_target=16_234,
        outgoing_activities=621, outgoing_target_accounts=397,
        outgoing_target_pages=32,
        ip_pool_size=4, asns=(64512,),
        registrant_country="ID", launch_days_before_epoch=500,
    ),
    CollusionNetworkProfile(
        domain="autolike.vn", app_id=PAGE_MANAGER_IOS,
        posts_milked=139, likes_per_request=254, membership_target=14_892,
        outgoing_activities=2822, outgoing_target_accounts=1382,
        outgoing_target_pages=144,
        ip_pool_size=6, asns=(64512,),
        registrant_country="VN", launch_days_before_epoch=390,
    ),
    CollusionNetworkProfile(
        domain="monsterlikes.com", app_id=HTC_SENSE,
        posts_milked=495, likes_per_request=146, membership_target=5_168,
        outgoing_activities=2107, outgoing_target_accounts=671,
        outgoing_target_pages=39,
        comment_style=_style(41, 4, 0.10), comments_per_post=9,
        comment_posts_milked=100,
        ip_pool_size=3, asns=(64511,),
        whois_privacy=True, registrant_country=None,
        launch_days_before_epoch=280,
    ),
    CollusionNetworkProfile(
        domain="postlikers.com", app_id=HTC_SENSE,
        posts_milked=96, likes_per_request=89, membership_target=4_656,
        outgoing_activities=2590, outgoing_target_accounts=1543,
        outgoing_target_pages=94,
        ip_pool_size=3, asns=(64513,),
        registrant_country="IN", launch_days_before_epoch=290,
    ),
    CollusionNetworkProfile(
        domain="facebook-autoliker.com", app_id=HTC_SENSE,
        posts_milked=132, likes_per_request=33, membership_target=3_108,
        outgoing_activities=2403, outgoing_target_accounts=1757,
        outgoing_target_pages=15,
        ip_pool_size=2, asns=(64510,),
        registrant_country="IN", launch_days_before_epoch=330,
    ),
    CollusionNetworkProfile(
        domain="realliker.com", app_id=HTC_SENSE,
        posts_milked=105, likes_per_request=187, membership_target=2_860,
        outgoing_activities=2362, outgoing_target_accounts=846,
        outgoing_target_pages=61,
        ip_pool_size=3, asns=(64511,),
        whois_privacy=True, registrant_country=None,
        launch_days_before_epoch=285,
    ),
    CollusionNetworkProfile(
        domain="autolikesub.com", app_id=SONY_XPERIA,
        posts_milked=286, likes_per_request=88, membership_target=2_379,
        outgoing_activities=1531, outgoing_target_accounts=717,
        outgoing_target_pages=100,
        ip_pool_size=3, asns=(64512,),
        registrant_country="VN", launch_days_before_epoch=260,
    ),
    CollusionNetworkProfile(
        domain="kingliker.com", app_id=HTC_SENSE,
        posts_milked=107, likes_per_request=47, membership_target=2_243,
        outgoing_activities=1245, outgoing_target_accounts=587,
        outgoing_target_pages=136,
        ip_pool_size=2, asns=(64513,),
        registrant_country="IN", launch_days_before_epoch=270,
    ),
    CollusionNetworkProfile(
        domain="rockliker.net", app_id=HTC_SENSE,
        posts_milked=99, likes_per_request=44, membership_target=1_480,
        outgoing_activities=82, outgoing_target_accounts=39,
        outgoing_target_pages=1,
        ip_pool_size=2, asns=(64510,),
        registrant_country="IN", launch_days_before_epoch=240,
    ),
    CollusionNetworkProfile(
        domain="arabfblike.com", app_id=HTC_SENSE,
        posts_milked=311, likes_per_request=14, membership_target=1_328,
        outgoing_activities=68, outgoing_target_accounts=31,
        outgoing_target_pages=14,
        outage_rate=0.25,  # "suffers from intermittent outages" (§4.1)
        comment_style=_style(37, 3, 0.29), comments_per_post=2,
        comment_posts_milked=130,
        ip_pool_size=2, asns=(64511,),
        registrant_country="EG", launch_days_before_epoch=300,
    ),
    CollusionNetworkProfile(
        domain="fast-liker.com", app_id=HTC_SENSE,
        posts_milked=232, likes_per_request=44, membership_target=834,
        outgoing_activities=1472, outgoing_target_accounts=572,
        outgoing_target_pages=102,
        ip_pool_size=2, asns=(64510,),
        whois_privacy=True, registrant_country=None,
        launch_days_before_epoch=220,
    ),
)


def profile_for(domain: str) -> CollusionNetworkProfile:
    for profile in MILKED_PROFILES:
        if profile.domain == domain:
            return profile
    raise KeyError(f"no milked profile for {domain}")


# ---------------------------------------------------------------------------
# Table 5 — short URLs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShortUrlSeed:
    """One Table 5 row, expressed relative to the simulation epoch."""

    label: str  # the paper's goo.gl slug (display only)
    days_before_epoch: int  # creation date offset
    seed_clicks: int  # click history accrued before the epoch
    app_id: str
    referrer: Optional[str]
    long_url_key: str  # short URLs sharing a key share the long URL


# Creation dates relative to 2015-11-01 (the simulation epoch).
SHORT_URL_SEEDS: Tuple[ShortUrlSeed, ...] = (
    ShortUrlSeed("goo.gl/jZ7Nyl", 508, 147_959_735, HTC_SENSE,
                 "mg-likers.com", "htc-dialog-a"),
    ShortUrlSeed("goo.gl/4GYbBl", 489, 64_493_698, HTC_SENSE,
                 "djliker.com", "htc-dialog-a"),
    ShortUrlSeed("goo.gl/rHnKIv", 182, 28_511_756, HTC_SENSE,
                 "sys.hublaa.me", "htc-dialog-b"),
    ShortUrlSeed("goo.gl/2hbUps", 393, 7_000_579, PAGE_MANAGER_IOS,
                 "autolike.vn", "pagemanager-dialog"),
    ShortUrlSeed("goo.gl/KJnSnH", 347, 7_582_494, HTC_SENSE,
                 "m.machineliker.com", "htc-dialog-c"),
    ShortUrlSeed("goo.gl/QfLHlq", 506, 2_269_148, HTC_SENSE,
                 "begeniyor.com", "htc-dialog-a"),
    ShortUrlSeed("goo.gl/zsaJ61", 162, 2_721_864, HTC_SENSE,
                 "www.royaliker.net", "htc-dialog-d"),
    ShortUrlSeed("goo.gl/civ2CS", 307, 1_288_801, HTC_SENSE,
                 "oneliker.com", "htc-dialog-e"),
    ShortUrlSeed("goo.gl/ZQwU5e", 498, 1_005_471, NOKIA_ACCOUNT,
                 "adf.ly", "nokia-dialog"),
    ShortUrlSeed("goo.gl/nC9ciz", 56, 1_009_801, SONY_XPERIA,
                 "refer.autolikerfb.com", "xperia-dialog-a"),
    ShortUrlSeed("goo.gl/kKPCNy", 281, 297_915, HTC_SENSE,
                 "realliker.com", "htc-dialog-a"),
    ShortUrlSeed("goo.gl/uIv2OS", 273, 355_405, SONY_XPERIA,
                 None, "xperia-dialog-b"),
    ShortUrlSeed("goo.gl/5XbAaz", 279, 165_345, HTC_SENSE,
                 "postlikers.com", "htc-dialog-f"),
)

#: Long-URL click totals from Table 5 that exceed the sum of the listed
#: short URLs (unlisted short links point at the same dialog); the
#: remainder is seeded through one synthetic "unlisted" link per key.
LONG_URL_CLICK_TOTALS: Dict[str, int] = {
    "htc-dialog-a": 236_194_576,
    "htc-dialog-b": 29_211_768,
    "pagemanager-dialog": 7_289_920,
    "htc-dialog-c": 8_223_464,
    "htc-dialog-d": 2_766_805,
    "htc-dialog-e": 1_288_902,
    "nokia-dialog": 1_005_698,
    "xperia-dialog-a": 1_034_299,
    "xperia-dialog-b": 1_019_830,
    "htc-dialog-f": 1_887_940,
}

#: Which milked network each short URL's ongoing clicks come from
#: (referrer domain -> network domain); None referrers map to nothing.
REFERRER_TO_NETWORK: Dict[str, str] = {
    "mg-likers.com": "mg-likers.com",
    "djliker.com": "djliker.com",
    "sys.hublaa.me": "hublaa.me",
    "autolike.vn": "autolike.vn",
    "oneliker.com": "oneliker.com",
    "realliker.com": "realliker.com",
    "postlikers.com": "postlikers.com",
}
