"""Pages: public entities that accumulate likes (fan counts)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.socialnet.activity import ActivityRecord


@dataclass
class Page:
    """A public page (brand, celebrity, collusion-network owner, ...)."""

    page_id: str
    name: str
    owner_id: str
    created_at: int = 0
    likes: List[ActivityRecord] = field(default_factory=list)
    _likers: Dict[str, ActivityRecord] = field(default_factory=dict,
                                               repr=False)

    @property
    def like_count(self) -> int:
        return len(self.likes)

    def liked_by(self, account_id: str) -> bool:
        return account_id in self._likers

    def add_like(self, like: ActivityRecord) -> None:
        self.likes.append(like)
        self._likers[like.actor_id] = like
