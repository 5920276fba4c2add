"""Posts and the engagement attached to them (likes, comments)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.socialnet.activity import ActivityRecord


@dataclass(slots=True)
class Comment:
    """A comment on a post, attributed as an :class:`ActivityRecord`."""

    comment_id: str
    author_id: str
    post_id: str
    text: str
    created_at: int
    via_app_id: Optional[str] = None
    source_ip: Optional[str] = None

    def __reduce__(self):
        # As ActivityRecord: a field tuple, not a slot-state dict.
        return (Comment, (self.comment_id, self.author_id, self.post_id,
                          self.text, self.created_at, self.via_app_id,
                          self.source_ip))


@dataclass
class Post:
    """A status update on an account's timeline.

    A like is the liker's ``like`` :class:`ActivityRecord`, the very
    object the activity log holds, so the platform keeps each like once.
    """

    post_id: str
    author_id: str
    text: str
    created_at: int
    likes: List[ActivityRecord] = field(default_factory=list)
    comments: List[Comment] = field(default_factory=list)
    _likers: Dict[str, ActivityRecord] = field(default_factory=dict,
                                               repr=False)

    @property
    def like_count(self) -> int:
        return len(self.likes)

    @property
    def comment_count(self) -> int:
        return len(self.comments)

    def liked_by(self, account_id: str) -> bool:
        return account_id in self._likers

    def add_like(self, like: ActivityRecord) -> None:
        """Attach a like; caller is responsible for duplicate checks."""
        self.likes.append(like)
        self._likers[like.actor_id] = like

    def add_comment(self, comment: Comment) -> None:
        self.comments.append(comment)

    def liker_ids(self) -> List[str]:
        """Ids of accounts that liked this post, in like order."""
        return [like.actor_id for like in self.likes]
