"""The day deltas of the two parts that grow with the world.

``TokenStore`` and ``SocialPlatform`` mark a day with a few counts and
build its delta from tails: the tokens issued and the flips logged
since the mark, the registries' tails, and the activity records since
the mark, which name the earlier posts and pages that gained likes or
comments.  The reference functions here are the walks they replace: a
token mark holding every token's flag, a platform mark holding every
post's and page's engagement counts, and deltas that diff the whole
store against them.  Both ship the same things, compared as multisets:
only the order of flipped tokens and touched posts and pages differs.

The campaign test runs days under a plan that invalidates tokens
mid-flight and re-joins a live member through the site's install flow,
which supersedes two tokens: one issued before the day's mark and one
issued that day.  The field-tuple pickling of engagement records,
accounts and ledger sightings that checkpoints and shard deltas rely
on, and the guard against a like removed behind the activity log's
back, are pinned here too.
"""

from __future__ import annotations

import copy
import pickle
from collections import Counter
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.catalog import AppCatalog
from repro.collusion.ecosystem import build_ecosystem
from repro.collusion.website import CollusionWebsiteSession
from repro.core.config import StudyConfig
from repro.core.world import World
from repro.countermeasures.campaign import (
    CampaignConfig,
    CountermeasureCampaign,
)
from repro.faults.plan import FaultPlan, FaultRule
from repro.honeypot.ledger import Observation
from repro.oauth.scopes import Permission, PermissionScope
from repro.oauth.tokens import TokenLifetime, TokenStore
from repro.sim.clock import DAY, HOUR, SimClock
from repro.socialnet.account import Account, AccountStatus
from repro.socialnet.activity import ActivityRecord
from repro.socialnet.platform import SocialPlatform
from repro.socialnet.post import Comment

# ----------------------------------------------------------------------
# The references: the walk-based marks and deltas.
# ----------------------------------------------------------------------


def reference_token_mark(store):
    """One byte per token, in issue order: its invalidated flag."""
    return bytes(token.invalidated for token in store._tokens.values())


def reference_token_delta(store, mark):
    """Tokens issued since ``mark``, and the earlier tokens whose flag
    differs from the one ``mark`` holds, in issue order."""
    flipped = []
    issued = []
    for index, t in enumerate(store._tokens.values()):
        if index >= len(mark):
            issued.append((t.token, t.user_id, t.app_id, t.scope,
                           t.issued_at, t.expires_at, t.invalidated,
                           t.invalidation_reason))
        elif t.invalidated != mark[index]:
            flipped.append((t.token, t.invalidated,
                            t.invalidation_reason))
    return {"counter": store._counter, "flipped": flipped,
            "issued": issued}


def reference_platform_mark(platform):
    """Registry sizes, every post's and page's engagement counts, and
    the activity log's mark."""
    return {
        "accounts": len(platform.accounts),
        "posts": len(platform.posts),
        "pages": len(platform.pages),
        "post_marks": {post_id: (len(post.likes), len(post.comments))
                       for post_id, post in platform.posts.items()},
        "page_marks": {page_id: len(page.likes)
                       for page_id, page in platform.pages.items()},
        "activity": platform.activity_log.mark(),
    }


def reference_platform_delta(platform, mark):
    """Registry tails and the engagement suffix of every earlier post
    and page that grew, in registry order."""
    touched_posts = []
    for post_id, (n_likes, n_comments) in mark["post_marks"].items():
        post = platform.posts[post_id]
        if len(post.likes) > n_likes or len(post.comments) > n_comments:
            touched_posts.append((post_id, post.likes[n_likes:],
                                  post.comments[n_comments:]))
    touched_pages = []
    for page_id, n_likes in mark["page_marks"].items():
        page = platform.pages[page_id]
        if len(page.likes) > n_likes:
            touched_pages.append((page_id, page.likes[n_likes:]))
    return {
        "new_accounts": list(platform.accounts.values())[mark["accounts"]:],
        "new_posts": list(platform.posts.values())[mark["posts"]:],
        "new_pages": list(platform.pages.values())[mark["pages"]:],
        "touched_posts": touched_posts,
        "touched_pages": touched_pages,
        "activity": platform.activity_log.export_delta(mark["activity"]),
    }


def _token_items(delta):
    """The counter and a multiset of the issued and flipped rows."""
    items = Counter(("issued", *row) for row in delta["issued"])
    items.update(("flipped", *row) for row in delta["flipped"])
    return delta["counter"], items


def _platform_items(delta):
    """A multiset key for every object a platform delta ships: new
    accounts, posts and pages (live objects, by identity), each like
    and comment with the earlier post or page it was added to, and
    each activity record."""
    items = Counter(("account", id(account))
                    for account in delta["new_accounts"])
    items.update(("post", id(post)) for post in delta["new_posts"])
    items.update(("page", id(page)) for page in delta["new_pages"])
    for post_id, likes, comments in delta["touched_posts"]:
        items.update(("post-like", post_id, astuple(like))
                     for like in likes)
        items.update(("post-comment", post_id, astuple(comment))
                     for comment in comments)
    for page_id, likes in delta["touched_pages"]:
        items.update(("page-like", page_id, astuple(like))
                     for like in likes)
    items.update(("activity", astuple(record))
                 for record in delta["activity"])
    return items


# ----------------------------------------------------------------------
# A campaign under mid-day token invalidation, with a re-join.
# ----------------------------------------------------------------------

NETWORKS = ("fb-autolikers.com", "autolike.vn")
SCALE = 0.002
DAYS = 10

#: Mid-flight invalidation on every action, plus transient errors.
FAULT_PLAN = FaultPlan((
    FaultRule(kind="invalidate_token", probability=0.002),
    FaultRule(kind="transient", probability=0.01),
))


def _campaign():
    world = World(StudyConfig(scale=SCALE, seed=11, fault_plan=FAULT_PLAN))
    AppCatalog(world.apps, world.rng.stream("catalog"),
               tail_apps=0).build()
    ecosystem = build_ecosystem(world, build_membership=False,
                                network_limit=13)
    for domain in NETWORKS:
        network = ecosystem.network(domain)
        network.build_membership(network.profile.pool_size(SCALE))
    config = CampaignConfig.compressed(DAYS, networks=NETWORKS,
                                       hublaa_outage=None)
    return CountermeasureCampaign(world, ecosystem, config)


def _midday_visit(campaign):
    """A live member re-joins through the site's install flow, which
    issues two tokens (install, then the view-source dialog), each
    superseding the last.  The member then comments on the platform's
    oldest post and likes its oldest page."""
    world = campaign.world
    network = campaign.networks[NETWORKS[0]]
    member = next(m for m in network._member_list
                  if world.tokens.live_token_for(m, network.app.app_id))
    session = CollusionWebsiteSession(network, member)
    session.open_site()
    session.install_app()
    session.click_get_access_token()
    session.submit_token(session.copy_token_from_address_bar())
    platform = world.platform
    post = next(iter(platform.posts.values()), None)
    if post is not None:
        platform.comment_on_post(member, post.post_id, "nice one")
    page = next(iter(platform.pages.values()), None)
    if page is not None and not page.liked_by(member):
        platform.like_page(member, page.page_id)


def test_campaign_day_deltas_ship_what_the_walks_ship():
    campaign = _campaign()
    world = campaign.world
    tokens, platform = world.tokens, world.platform
    seen = Counter()
    for day in range(1, DAYS + 1):
        marks = tokens.mark(), platform.mark()
        walks = reference_token_mark(tokens), reference_platform_mark(platform)
        world.scheduler.at(world.clock.now() + DAY // 2,
                           lambda: _midday_visit(campaign),
                           label="test-midday-visit")
        campaign._run_day(day)

        delta = tokens.export_delta(marks[0])
        assert (_token_items(delta)
                == _token_items(reference_token_delta(tokens, walks[0]))), day
        issued = {row[0]: row for row in delta["issued"]}
        seen["issued-then-flipped"] += sum(row[6] for row in issued.values())
        for token, _flag, reason in delta["flipped"]:
            assert token not in issued
            seen[f"flipped:{reason}"] += 1

        delta = platform.export_delta(marks[1])
        assert (_platform_items(delta)
                == _platform_items(reference_platform_delta(platform,
                                                            walks[1]))), day
        for _post_id, likes, comments in delta["touched_posts"]:
            seen["post-likes"] += len(likes)
            seen["post-comments"] += len(comments)
        for _page_id, likes in delta["touched_pages"]:
            seen["page-likes"] += len(likes)
    # Every kind of change the deltas must carry happened.
    for kind in ("issued-then-flipped", "flipped:superseded",
                 "flipped:fault_injection", "post-likes", "post-comments",
                 "page-likes"):
        assert seen[kind], (kind, seen)


# ----------------------------------------------------------------------
# Random histories of a bare token store, forked and merged like a day.
# ----------------------------------------------------------------------

_SCOPE = PermissionScope([Permission.PUBLIC_PROFILE])

_TOKEN_STEPS = st.lists(st.one_of(
    # issue for (user, app): supersedes a live token of the pair
    st.tuples(st.just("issue"), st.integers(0, 3), st.integers(0, 1)),
    st.tuples(st.just("invalidate"), st.integers(0, 63)),
    st.tuples(st.just("advance"), st.sampled_from((HOUR, 61 * DAY))),
    st.tuples(st.just("mark")),
    st.tuples(st.just("fork")),
    st.tuples(st.just("merge")),
), max_size=60)


def _token_rows(store):
    return ([astuple(token) for token in store._tokens.values()],
            store._by_app, store._counter)


def _assert_deltas_match(store, marks):
    for mark, walk in marks:
        assert (_token_items(store.export_delta(mark))
                == _token_items(reference_token_delta(store, walk)))


@settings(max_examples=300, deadline=None)
@given(_TOKEN_STEPS)
def test_token_deltas_match_the_walk_over_random_histories(steps):
    # A parent store takes marks; a fork is a child copy that runs on
    # alone and merges back through export_delta/apply_delta, as a
    # shard child's day does, so the parent's delta since a mark before
    # the fork must carry the flips the merge applied.  Every delta
    # from every mark, on either side, ships what the walk ships.
    clock = SimClock()
    parent = TokenStore(clock)
    parent_marks = []
    child = child_marks = None
    for step in steps:
        live = parent if child is None else child
        kind = step[0]
        if kind == "issue":
            live.issue(f"user:{step[1]}", f"app:{step[2]}", _SCOPE,
                       TokenLifetime.LONG_TERM)
        elif kind == "invalidate" and len(live):
            strings = list(live._tokens)
            live.invalidate(strings[step[1] % len(strings)])
        elif kind == "advance":
            clock.advance(step[1])
        elif kind == "mark":
            marks = parent_marks if child is None else child_marks
            marks.append((live.mark(), reference_token_mark(live)))
        elif kind == "fork" and child is None:
            # The parent marks its day before the child forks off.
            parent_marks.append((parent.mark(), reference_token_mark(parent)))
            child = copy.deepcopy(parent, {id(clock): clock})
            child_marks = [(child.mark(), reference_token_mark(child))]
        elif kind == "merge" and child is not None:
            _assert_deltas_match(child, child_marks)
            parent.apply_delta(child.export_delta(child_marks[0][0]))
            assert _token_rows(parent) == _token_rows(child)
            child = None
    _assert_deltas_match(parent, parent_marks)
    if child is not None:
        _assert_deltas_match(child, child_marks)


# ----------------------------------------------------------------------
# Random engagement on a bare platform.
# ----------------------------------------------------------------------

_PLATFORM_STEPS = st.lists(st.one_of(
    st.tuples(st.just("account")),
    st.tuples(st.just("post"), st.integers(0, 31)),
    st.tuples(st.just("page"), st.integers(0, 31)),
    st.tuples(st.sampled_from(("like_post", "like_page", "comment")),
              st.integers(0, 31), st.integers(0, 31)),
    st.tuples(st.just("mark")),
), max_size=80)


@settings(max_examples=300, deadline=None)
@given(_PLATFORM_STEPS)
def test_platform_deltas_match_the_walk_over_random_engagement(steps):
    platform = SocialPlatform(SimClock())
    platform.register_account("first")
    marks = []
    for step in steps:
        kind = step[0]
        accounts = list(platform.accounts)
        if kind == "account":
            platform.register_account("someone")
        elif kind == "mark":
            marks.append((platform.mark(), reference_platform_mark(platform)))
        elif kind in ("post", "page"):
            owner = accounts[step[1] % len(accounts)]
            if kind == "post":
                platform.create_post(owner, "hello")
            else:
                platform.create_page(owner, "a page")
        else:
            actor = accounts[step[1] % len(accounts)]
            targets = list(platform.pages if kind == "like_page"
                           else platform.posts)
            if not targets:
                continue
            target = targets[step[2] % len(targets)]
            if kind == "comment":
                platform.comment_on_post(actor, target, "nice")
            elif kind == "like_post":
                if not platform.posts[target].liked_by(actor):
                    platform.like_post(actor, target)
            elif not platform.pages[target].liked_by(actor):
                platform.like_page(actor, target)
    for mark, walk in marks:
        assert (_platform_items(platform.export_delta(mark))
                == _platform_items(reference_platform_delta(platform, walk)))


def test_export_delta_refuses_a_like_removed_since_the_mark():
    # remove_like (the clean-up pass) leaves the like's activity record
    # behind; a delta across it would ship a like that is gone.
    platform = SocialPlatform(SimClock())
    author = platform.register_account("author").account_id
    fan = platform.register_account("fan").account_id
    post = platform.create_post(author, "hello")
    mark = platform.mark()
    platform.like_post(fan, post.post_id)
    assert platform.export_delta(mark)["touched_posts"] == [
        (post.post_id, post.likes, [])]
    assert platform.remove_like(post.post_id, fan)
    with pytest.raises(RuntimeError, match="fewer than"):
        platform.export_delta(mark)


# ----------------------------------------------------------------------
# Engagement records, accounts and ledger sightings pickle as (class,
# field tuple).
# ----------------------------------------------------------------------

_RECORDS = [
    ActivityRecord("acct:1", "like", "post:2", "post", "acct:3", 100),
    ActivityRecord("acct:1", "comment", "post:2", "post", "acct:3", 100,
                   via_app_id="app:9", source_ip="10.0.0.1"),
    Comment("comment:5", "acct:1", "post:2", "nice", 300),
    Comment("comment:5", "acct:1", "post:2", "nice", 300,
            via_app_id="app:9", source_ip="10.0.0.1"),
    Account("acct:1", "Colluding User 1"),
    Account("acct:2", "Honeypot", country="IN", created_at=400,
            status=AccountStatus.SUSPENDED, is_honeypot=True,
            friend_ids={"acct:1"}, follower_count=7),
    Observation("acct:1", None, 500, 500, ("net.a",), 0),
    Observation("acct:1", "app:9", 500, 900, ("net.a", "net.b"), 3,
                sightings=4),
]


@pytest.mark.parametrize("record", _RECORDS, ids=repr)
def test_engagement_records_pickle_as_a_field_tuple(record):
    cls = type(record)
    assert record.__reduce_ex__(5)[0] is cls
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        copied = pickle.loads(pickle.dumps(record, protocol))
        assert type(copied) is cls
        assert copied == record
