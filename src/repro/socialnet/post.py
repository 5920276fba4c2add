"""Posts and the engagement attached to them (likes, comments)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


# Not frozen: frozen dataclasses construct via object.__setattr__, which
# is measurably slower on the platform's hottest allocations.
@dataclass(slots=True)
class Like:
    """A like on a post or page.

    ``via_app_id`` records the third-party application whose access token
    performed the like (``None`` for organic, first-party likes) and
    ``source_ip`` records the network origin of the Graph API request —
    the two fingerprints the countermeasures of §6 key on.
    """

    liker_id: str
    object_id: str
    created_at: int
    via_app_id: Optional[str] = None
    source_ip: Optional[str] = None

    def __reduce__(self):
        # As ActivityRecord: a field tuple, not a slot-state dict.
        return (Like, (self.liker_id, self.object_id, self.created_at,
                       self.via_app_id, self.source_ip))


@dataclass(slots=True)
class Comment:
    """A comment on a post, with the same attribution as :class:`Like`."""

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
    """A status update on an account's timeline."""

    post_id: str
    author_id: str
    text: str
    created_at: int
    likes: List[Like] = field(default_factory=list)
    comments: List[Comment] = field(default_factory=list)
    _likers: Dict[str, Like] = field(default_factory=dict, repr=False)

    @property
    def like_count(self) -> int:
        return len(self.likes)

    @property
    def comment_count(self) -> int:
        return len(self.comments)

    def liked_by(self, account_id: str) -> bool:
        return account_id in self._likers

    def add_like(self, like: Like) -> None:
        """Attach a like; caller is responsible for duplicate checks."""
        self.likes.append(like)
        self._likers[like.liker_id] = like

    def add_comment(self, comment: Comment) -> None:
        self.comments.append(comment)

    def liker_ids(self) -> List[str]:
        """Ids of accounts that liked this post, in like order."""
        return [like.liker_id for like in self.likes]
