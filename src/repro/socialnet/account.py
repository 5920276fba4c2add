"""User accounts and their profile data."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import AbstractSet, FrozenSet


class AccountStatus(enum.Enum):
    """Lifecycle states of a platform account."""

    ACTIVE = "active"
    SUSPENDED = "suspended"
    DELETED = "deleted"


#: The friend set of every account without friends, shared: almost no
#: simulated account has one, and an empty set costs 216 bytes.
NO_FRIENDS: FrozenSet[str] = frozenset()


@dataclass(slots=True)
class Account:
    """A platform user account.

    ``country`` drives the geolocation statistics of Table 2 / Table 5;
    ``is_honeypot`` marks the measurement accounts we control so analyses
    can exclude them from membership estimates.  ``friend_ids`` is the
    shared :data:`NO_FRIENDS` until
    :meth:`~repro.socialnet.platform.SocialPlatform.befriend` gives the
    account a set of its own.  Slotted: a paper-scale study registers
    about 1.7M accounts, and a slotted one sharing the empty friend set
    is 105 bytes against 369 with a ``__dict__`` and a set of its own.
    """

    account_id: str
    name: str
    country: str = "US"
    created_at: int = 0
    status: AccountStatus = AccountStatus.ACTIVE
    is_honeypot: bool = False
    friend_ids: AbstractSet[str] = NO_FRIENDS
    follower_count: int = 0

    def __reduce__(self):
        # A field tuple, as ActivityRecord: day deltas ship new accounts.
        return (Account, (
            self.account_id, self.name, self.country, self.created_at,
            self.status, self.is_honeypot, self.friend_ids,
            self.follower_count))

    @property
    def is_active(self) -> bool:
        return self.status is AccountStatus.ACTIVE

    def public_profile(self) -> dict:
        """The profile fields exposed through basic OAuth permissions."""
        return {
            "id": self.account_id,
            "name": self.name,
            "country": self.country,
        }
