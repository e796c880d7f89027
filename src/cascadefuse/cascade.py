"""Domain types for posts, stories and labels, plus validation helpers.

Timestamps are stored as seconds elapsed since the story's first post.
All types are immutable after construction; operations are pure functions.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field, replace

from .errors import InvalidValue

BINARY_LABELS = ("true", "fake")
FOURWAY_LABELS = ("true", "fake", "unverified", "debunking")

# profile fields that are counts/lengths (scaled), in canonical order
PROFILE_COUNT_FIELDS = (
    "desc_len",
    "name_len",
    "followers",
    "follows",
    "post_count",
    "account_age_days",
)
PROFILE_FLAG_FIELDS = ("verified", "geo")
_profile_values = operator.attrgetter(*PROFILE_COUNT_FIELDS, *PROFILE_FLAG_FIELDS)


@dataclass(frozen=True)
class UserProfile:
    """Eight profile characteristics of the posting account."""

    desc_len: float = 0.0
    name_len: float = 0.0
    followers: float = 0.0
    follows: float = 0.0
    post_count: float = 0.0
    account_age_days: float = 0.0
    verified: int = 0
    geo: int = 0

    def __post_init__(self):
        for name in PROFILE_COUNT_FIELDS:
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise InvalidValue(f"profile field {name!r} must be finite and non-negative")
        for name in PROFILE_FLAG_FIELDS:
            if getattr(self, name) not in (0, 1):
                raise InvalidValue(f"profile flag {name!r} must be 0 or 1")

    def as_tuple(self):
        return _profile_values(self)


@dataclass(frozen=True)
class Post:
    """One SNS post: relative time, audience size, text, author profile."""

    t: float
    followers: float
    text: str = ""
    user: UserProfile = field(default_factory=UserProfile)

    def __post_init__(self):
        if not 0 <= self.followers < math.inf:  # NaN fails too
            raise InvalidValue("followers must be finite and non-negative")


@dataclass(frozen=True)
class NewsStory:
    """A labeled cascade: the source post plus its reshares, time-ordered."""

    id: str
    label: str
    posts: tuple[Post, ...]

    def __post_init__(self):
        object.__setattr__(self, "posts", tuple(self.posts))


def validate_story(raw: NewsStory) -> NewsStory:
    """Normalize a parsed story: sort posts by time, rebase so min t = 0.

    Idempotent. Raises InvalidValue on no posts, a negative or non-finite t,
    or an unknown label.
    """
    if len(raw.posts) == 0:
        raise InvalidValue(f"story {raw.id!r} has no posts")
    for p in raw.posts:
        if not 0 <= p.t < math.inf:
            if p.t < 0:
                raise InvalidValue(f"story {raw.id!r} has post at t={p.t}")
            raise InvalidValue(f"story {raw.id!r} has post at non-finite t={p.t}")
    if raw.label not in FOURWAY_LABELS:
        raise InvalidValue(f"story {raw.id!r} has label {raw.label!r}, "
                           f"expected one of {sorted(FOURWAY_LABELS)}")
    posts = sorted(raw.posts, key=lambda p: p.t)  # stable: ties keep input order
    t0 = posts[0].t
    if t0 != 0:
        posts = [replace(p, t=p.t - t0) for p in posts]
    return NewsStory(id=raw.id, label=raw.label, posts=tuple(posts))


def truncate_story(story: NewsStory, horizon: float) -> NewsStory:
    """Keep only posts with t <= horizon (seconds). The t=0 post always survives."""
    if not horizon >= 0:  # NaN fails too
        raise InvalidValue("horizon must be non-negative")
    kept = tuple(p for p in story.posts if p.t <= horizon)
    return NewsStory(id=story.id, label=story.label, posts=kept)


def profile_from_dict(d: dict) -> UserProfile:
    """Build a UserProfile from a raw mapping; missing fields default to 0."""
    known = PROFILE_COUNT_FIELDS + PROFILE_FLAG_FIELDS
    missing = [k for k in known if k not in d]
    if missing:
        warnings.warn(f"user profile missing fields {missing}, defaulting to 0", stacklevel=2)
    return UserProfile(**{k: d.get(k, 0) for k in known})
