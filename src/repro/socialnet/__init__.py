"""A deterministic in-memory online social network (the Facebook stand-in).

Models exactly the platform surface the paper's measurement depends on:
user accounts with friend edges, posts with likes and comments, pages, and
per-account activity logs.  Write actions are attributed to the third-party
application that performed them, which is what makes OAuth token abuse
observable downstream.
"""

from repro.socialnet.account import Account, AccountStatus
from repro.socialnet.post import Post, Comment
from repro.socialnet.page import Page
from repro.socialnet.activity import ActivityRecord, ActivityLog
from repro.socialnet.platform import SocialPlatform
from repro.socialnet.errors import (
    SocialNetworkError,
    UnknownAccountError,
    UnknownPostError,
    UnknownPageError,
    AccountSuspendedError,
    DuplicateLikeError,
)

__all__ = [
    "Account",
    "AccountStatus",
    "Post",
    "Comment",
    "Page",
    "ActivityRecord",
    "ActivityLog",
    "SocialPlatform",
    "SocialNetworkError",
    "UnknownAccountError",
    "UnknownPostError",
    "UnknownPageError",
    "AccountSuspendedError",
    "DuplicateLikeError",
]
