"""The social platform core: registries plus the write-action primitives.

:class:`SocialPlatform` is deliberately *unauthenticated* — it trusts its
caller about who is acting.  Authentication and authorization live one layer
up in :mod:`repro.graphapi`, exactly as the Graph API fronts Facebook's
internal systems.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Optional

from repro.sim.clock import SimClock
from repro.sim.ids import IdAllocator
from repro.socialnet.account import Account, AccountStatus
from repro.socialnet.activity import ActivityLog, ActivityRecord
from repro.socialnet.errors import (
    AccountSuspendedError,
    DuplicateLikeError,
    UnknownAccountError,
    UnknownPageError,
    UnknownPostError,
)
from repro.socialnet.page import Page
from repro.socialnet.post import Comment, Post


def _tail(registry: Dict[str, object], count: int) -> list:
    """The values registered after the first ``count``, oldest first."""
    tail = list(islice(reversed(registry.values()), len(registry) - count))
    tail.reverse()
    return tail


def _since(engagement: list, gained: int, target_id: str) -> list:
    """The last ``gained`` likes or comments of ``target_id``'s list."""
    if len(engagement) < gained:
        raise RuntimeError(
            f"{target_id} holds {len(engagement)} likes or comments, fewer "
            f"than the {gained} its activity since the mark records")
    return engagement[len(engagement) - gained:]


class SocialPlatform:
    """In-memory social network state with platform write primitives."""

    def __init__(self, clock: SimClock, ids: Optional[IdAllocator] = None) -> None:
        self.clock = clock
        self.ids = ids or IdAllocator()
        self.accounts: Dict[str, Account] = {}
        self.posts: Dict[str, Post] = {}
        self.pages: Dict[str, Page] = {}
        # Per-author creation-order index so timeline() stays O(author's
        # posts) rather than scanning every post on the platform.
        self._posts_by_author: Dict[str, List[Post]] = {}
        self.activity_log = ActivityLog()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_account(self, name: str, country: str = "US",
                         is_honeypot: bool = False) -> Account:
        """Create a new active account and return it."""
        account_id = self.ids.next("acct")
        account = Account(
            account_id=account_id,
            name=name,
            country=country,
            created_at=self.clock.now(),
            is_honeypot=is_honeypot,
        )
        self.accounts[account_id] = account
        return account

    def create_page(self, owner_id: str, name: str) -> Page:
        """Create a public page owned by ``owner_id``."""
        self._require_account(owner_id)
        page_id = self.ids.next("page")
        page = Page(page_id=page_id, name=name, owner_id=owner_id,
                    created_at=self.clock.now())
        self.pages[page_id] = page
        return page

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def _require_account(self, account_id: str) -> Account:
        account = self.accounts.get(account_id)
        if account is None:
            raise UnknownAccountError(account_id)
        return account

    def _require_active(self, account_id: str) -> Account:
        account = self._require_account(account_id)
        if account.status is not AccountStatus.ACTIVE:
            raise AccountSuspendedError(account_id)
        return account

    def get_account(self, account_id: str) -> Account:
        return self._require_account(account_id)

    def get_post(self, post_id: str) -> Post:
        post = self.posts.get(post_id)
        if post is None:
            raise UnknownPostError(post_id)
        return post

    def get_page(self, page_id: str) -> Page:
        page = self.pages.get(page_id)
        if page is None:
            raise UnknownPageError(page_id)
        return page

    def timeline(self, account_id: str) -> List[Post]:
        """Posts authored by ``account_id``, oldest first."""
        self._require_account(account_id)
        return list(self._posts_by_author.get(account_id, ()))

    # ------------------------------------------------------------------
    # Social graph
    # ------------------------------------------------------------------
    def befriend(self, a_id: str, b_id: str) -> None:
        """Create a mutual friend edge.

        An account's first friend replaces its empty friend set, which
        is shared, with a set of its own."""
        a = self._require_account(a_id)
        b = self._require_account(b_id)
        for account, friend_id in ((a, b_id), (b, a_id)):
            if account.friend_ids:
                account.friend_ids.add(friend_id)
            else:
                account.friend_ids = {friend_id}

    # ------------------------------------------------------------------
    # Write actions
    # ------------------------------------------------------------------
    def create_post(self, author_id: str, text: str,
                    via_app_id: Optional[str] = None,
                    source_ip: Optional[str] = None) -> Post:
        """Publish a status update on the author's timeline."""
        self._require_active(author_id)
        post_id = self.ids.next("post")
        now = self.clock.now()
        post = Post(post_id=post_id, author_id=author_id, text=text,
                    created_at=now)
        self.posts[post_id] = post
        self._posts_by_author.setdefault(author_id, []).append(post)
        self.activity_log.record(ActivityRecord(
            actor_id=author_id, verb="post", target_id=post_id,
            target_kind="post", target_owner_id=author_id,
            created_at=now, via_app_id=via_app_id,
            source_ip=source_ip,
        ))
        return post

    def like_post(self, liker_id: str, post_id: str,
                  via_app_id: Optional[str] = None,
                  source_ip: Optional[str] = None) -> ActivityRecord:
        """Like a post on behalf of ``liker_id``.

        The like is its activity record: one object, held by the post
        and by the activity log."""
        self._require_active(liker_id)
        post = self.get_post(post_id)
        if post.liked_by(liker_id):
            raise DuplicateLikeError(liker_id, post_id)
        like = ActivityRecord(liker_id, "like", post_id, "post",
                              post.author_id, self.clock.now(),
                              via_app_id, source_ip)
        post.add_like(like)
        self.activity_log.record(like)
        return like

    def like_page(self, liker_id: str, page_id: str,
                  via_app_id: Optional[str] = None,
                  source_ip: Optional[str] = None) -> ActivityRecord:
        """Like (become a fan of) a page, as :meth:`like_post`."""
        self._require_active(liker_id)
        page = self.get_page(page_id)
        if page.liked_by(liker_id):
            raise DuplicateLikeError(liker_id, page_id)
        like = ActivityRecord(liker_id, "like", page_id, "page",
                              page.owner_id, self.clock.now(),
                              via_app_id, source_ip)
        page.add_like(like)
        self.activity_log.record(like)
        return like

    def comment_on_post(self, author_id: str, post_id: str, text: str,
                        via_app_id: Optional[str] = None,
                        source_ip: Optional[str] = None) -> Comment:
        """Comment on a post on behalf of ``author_id``."""
        self._require_active(author_id)
        post = self.get_post(post_id)
        now = self.clock.now()
        comment = Comment(
            comment_id=self.ids.next("comment"), author_id=author_id,
            post_id=post_id, text=text, created_at=now,
            via_app_id=via_app_id, source_ip=source_ip,
        )
        post.add_comment(comment)
        self.activity_log.record(ActivityRecord(
            actor_id=author_id, verb="comment", target_id=post_id,
            target_kind="post", target_owner_id=post.author_id,
            created_at=now, via_app_id=via_app_id,
            source_ip=source_ip,
        ))
        return comment

    # ------------------------------------------------------------------
    # Moderation
    # ------------------------------------------------------------------
    def suspend_account(self, account_id: str) -> None:
        """Suspend an account; further actions raise AccountSuspendedError."""
        self._require_account(account_id).status = AccountStatus.SUSPENDED

    def reinstate_account(self, account_id: str) -> None:
        self._require_account(account_id).status = AccountStatus.ACTIVE

    def remove_like(self, post_id: str, liker_id: str) -> bool:
        """Remove a fake like (the clean-up step of §6); True if removed.

        The one write that takes a like off its post but leaves its
        record in the activity log, so :meth:`export_delta` cannot
        count the likes gained since a mark across it.  Only the
        clean-up pass
        (:class:`~repro.countermeasures.cleanup.EngagementCleaner`)
        calls it, and never on a campaign day.
        """
        post = self.get_post(post_id)
        if not post.liked_by(liker_id):
            return False
        post.likes = [lk for lk in post.likes if lk.actor_id != liker_id]
        del post._likers[liker_id]
        return True

    # ------------------------------------------------------------------
    # State transfer (campaign checkpoints)
    # ------------------------------------------------------------------
    # The platform's full state is the built world, which a resume
    # rebuilds deterministically; each day checkpoint carries only the
    # growth beyond the previous day's mark.  Registries are
    # insertion-ordered dicts, so what was registered since a count is
    # a tail, and every like is an activity record and every comment
    # writes exactly one, so the activity since the mark names the
    # engagement that earlier posts and pages gained.
    def mark(self) -> Dict[str, int]:
        """Sizes of the three registries and the activity log's mark."""
        return {
            "accounts": len(self.accounts),
            "posts": len(self.posts),
            "pages": len(self.pages),
            "activity": self.activity_log.mark(),
        }

    def export_delta(self, mark: Dict[str, int]) -> Dict[str, object]:
        """Everything appended since ``mark``.

        New accounts, posts and pages ship whole, their engagement
        inside; a post or page registered before the mark ships the
        suffixes of its like and comment lists that its activity
        records since the mark count, in order of first activity.
        Raises ``RuntimeError`` if an object holds fewer likes or
        comments than its activity counts (see :meth:`remove_like`).
        """
        new_posts = _tail(self.posts, mark["posts"])
        new_pages = _tail(self.pages, mark["pages"])
        fresh = {post.post_id for post in new_posts}
        fresh.update(page.page_id for page in new_pages)
        activity = self.activity_log.export_delta(mark["activity"])
        # (kind, id) of an earlier post or page -> [likes, comments] it
        # gained since the mark, in order of first activity.
        gained: Dict[tuple, List[int]] = {}
        for record in activity:
            if record.verb == "post" or record.target_id in fresh:
                continue
            key = (record.target_kind, record.target_id)
            counts = gained.get(key)
            if counts is None:
                counts = gained[key] = [0, 0]
            counts[1 if record.verb == "comment" else 0] += 1
        touched_posts = []
        touched_pages = []
        for (kind, target_id), (n_likes, n_comments) in gained.items():
            if kind == "post":
                post = self.posts[target_id]
                touched_posts.append(
                    (target_id, _since(post.likes, n_likes, target_id),
                     _since(post.comments, n_comments, target_id)))
            else:
                touched_pages.append(
                    (target_id, _since(self.pages[target_id].likes,
                                       n_likes, target_id)))
        return {
            "new_accounts": _tail(self.accounts, mark["accounts"]),
            "new_posts": new_posts,
            "new_pages": new_pages,
            "touched_posts": touched_posts,
            "touched_pages": touched_pages,
            "activity": activity,
        }

    def apply_delta(self, delta: Dict[str, object]) -> None:
        for account in delta["new_accounts"]:
            self.accounts[account.account_id] = account
        for post in delta["new_posts"]:
            self.posts[post.post_id] = post
            self._posts_by_author.setdefault(post.author_id,
                                             []).append(post)
        for page in delta["new_pages"]:
            self.pages[page.page_id] = page
        for post_id, likes, comments in delta["touched_posts"]:
            post = self.posts[post_id]
            for like in likes:
                post.add_like(like)
            for comment in comments:
                post.add_comment(comment)
        for page_id, likes in delta["touched_pages"]:
            page = self.pages[page_id]
            for like in likes:
                page.add_like(like)
        self.activity_log.apply_delta(delta["activity"])
