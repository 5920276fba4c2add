"""Crawlers for honeypot timelines and activity logs (§4, "Data
collection": incoming likes/comments from timelines, outgoing activity
from activity logs)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

from repro.honeypot.account import HoneypotAccount
from repro.honeypot.ledger import MilkedTokenLedger


@dataclass(frozen=True)
class OutgoingActivitySummary:
    """Table 4's "Outgoing Activities" columns for one honeypot."""

    activities: int
    target_accounts: int
    target_pages: int


class TimelineCrawler:
    """Incrementally crawls honeypot posts, feeding the ledger.

    Keeps a per-post cursor so repeated crawls only process new likes —
    the same reason the paper crawled "regularly" rather than once.
    """

    def __init__(self, world, ledger: MilkedTokenLedger) -> None:
        self._world = world
        self._ledger = ledger
        self._like_cursor: Dict[str, int] = {}
        self._comment_cursor: Dict[str, int] = {}

    def crawl_incoming(self, honeypot: HoneypotAccount) -> Tuple[int, int]:
        """Crawl new likes/comments on the honeypot's posts.

        Returns (new likes, new comments) and records each acting account
        in the ledger under the honeypot's network.
        """
        day = self._world.clock.day()
        new_likes = 0
        new_comments = 0
        for post_id in honeypot.like_post_ids + honeypot.comment_post_ids:
            post = self._world.platform.get_post(post_id)
            start = self._like_cursor.get(post_id, 0)
            for like in post.likes[start:]:
                self._ledger.observe(
                    like.actor_id, honeypot.network_domain,
                    like.created_at, day, app_id=like.via_app_id)
                new_likes += 1
            self._like_cursor[post_id] = len(post.likes)
            cstart = self._comment_cursor.get(post_id, 0)
            for comment in post.comments[cstart:]:
                self._ledger.observe(
                    comment.author_id, honeypot.network_domain,
                    comment.created_at, day, app_id=comment.via_app_id)
                new_comments += 1
            self._comment_cursor[post_id] = len(post.comments)
        return new_likes, new_comments

    def export_state(self) -> tuple:
        return (dict(self._like_cursor), dict(self._comment_cursor))

    def install_state(self, state: tuple) -> None:
        like_cursor, comment_cursor = state
        self._like_cursor = dict(like_cursor)
        self._comment_cursor = dict(comment_cursor)

    def crawl_outgoing(self, honeypot: HoneypotAccount) -> OutgoingActivitySummary:
        """Summarize the honeypot's own activity log: actions the network
        performed *with* the honeypot's token."""
        records = self._world.platform.activity_log.for_actor(
            honeypot.account_id)
        accounts: Set[str] = set()
        pages: Set[str] = set()
        activities = 0
        for record in records:
            if record.verb not in ("like", "comment"):
                continue
            if record.target_owner_id == honeypot.account_id:
                continue  # not outgoing manipulation
            activities += 1
            if record.target_kind == "page":
                pages.add(record.target_id)
            else:
                accounts.add(record.target_owner_id)
        return OutgoingActivitySummary(
            activities=activities,
            target_accounts=len(accounts),
            target_pages=len(pages),
        )
