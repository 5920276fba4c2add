"""The URL shortening service.

Click histories are stored as aggregate counters (total, by-country,
by-referrer, by-day) rather than per-click records: Table 5's links carry
hundreds of millions of clicks, and the analytics the paper uses only ever
consume the aggregates.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.sim.clock import DAY, SimClock

_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


@dataclass
class ShortUrl:
    """A shortened link and its aggregated click analytics."""

    slug: str
    long_url: str
    created_at: int
    created_date: _dt.datetime
    click_count: int = 0
    clicks_by_country: Dict[str, int] = field(default_factory=dict)
    clicks_by_referrer: Dict[str, int] = field(default_factory=dict)
    clicks_by_day: Dict[int, int] = field(default_factory=dict)

    @property
    def short_url(self) -> str:
        return f"https://sho.rt/{self.slug}"

    def record(self, count: int, referrer: Optional[str],
               country: Optional[str], timestamp: int) -> None:
        if count <= 0:
            raise ValueError(f"click count must be positive, got {count}")
        self.click_count += count
        if country is not None:
            self.clicks_by_country[country] = (
                self.clicks_by_country.get(country, 0) + count)
        if referrer is not None:
            self.clicks_by_referrer[referrer] = (
                self.clicks_by_referrer.get(referrer, 0) + count)
        day = timestamp // DAY
        self.clicks_by_day[day] = self.clicks_by_day.get(day, 0) + count

    def daily_clicks(self, day: int) -> int:
        return self.clicks_by_day.get(day, 0)

    def copy(self) -> "ShortUrl":
        """A copy whose click counters are independent of this one's."""
        return replace(self, clicks_by_country=dict(self.clicks_by_country),
                       clicks_by_referrer=dict(self.clicks_by_referrer),
                       clicks_by_day=dict(self.clicks_by_day))


class UrlShortener:
    """Creates short URLs and records clicks against them."""

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._by_slug: Dict[str, ShortUrl] = {}
        self._by_long: Dict[str, List[str]] = {}
        self._counter = 0

    def __len__(self) -> int:
        return len(self._by_slug)

    def _mint_slug(self, long_url: str) -> str:
        self._counter += 1
        digest = hashlib.sha256(
            f"{long_url}|{self._counter}".encode()).digest()
        return "".join(_ALPHABET[b % len(_ALPHABET)] for b in digest[:6])

    def shorten(self, long_url: str,
                created_at: Optional[int] = None) -> ShortUrl:
        """Create a new short URL for ``long_url``.

        ``created_at`` may be negative to model links created before the
        simulation epoch (the oldest Table 5 link predates the milking
        campaign by over a year).
        """
        if created_at is None:
            created_at = self._clock.now()
        slug = self._mint_slug(long_url)
        short = ShortUrl(
            slug=slug,
            long_url=long_url,
            created_at=created_at,
            created_date=(self._clock.epoch
                          + _dt.timedelta(seconds=created_at)),
        )
        self._by_slug[slug] = short
        self._by_long.setdefault(long_url, []).append(slug)
        return short

    def resolve(self, slug: str) -> str:
        """Follow a short link (without recording a click)."""
        return self._require(slug).long_url

    def click(self, slug: str, referrer: Optional[str] = None,
              country: Optional[str] = None,
              timestamp: Optional[int] = None) -> str:
        """Record one click and return the destination URL."""
        short = self._require(slug)
        when = self._clock.now() if timestamp is None else timestamp
        short.record(1, referrer, country, when)
        return short.long_url

    def record_clicks(self, slug: str, count: int,
                      referrer: Optional[str] = None,
                      country: Optional[str] = None,
                      timestamp: Optional[int] = None) -> None:
        """Bulk-record ``count`` clicks sharing the same attribution
        (used to seed pre-epoch click histories)."""
        when = self._clock.now() if timestamp is None else timestamp
        self._require(slug).record(count, referrer, country, when)

    def get(self, slug: str) -> ShortUrl:
        return self._require(slug)

    def all(self) -> List[ShortUrl]:
        return list(self._by_slug.values())

    def slugs_for(self, long_url: str) -> List[str]:
        """All slugs pointing at ``long_url`` (several short URLs may
        share a destination, as Table 5 shows for the HTC Sense dialog)."""
        return list(self._by_long.get(long_url, ()))

    def long_url_click_count(self, long_url: str) -> int:
        """Total clicks across every short URL for ``long_url``."""
        return sum(self._by_slug[slug].click_count
                   for slug in self._by_long.get(long_url, ()))

    def export_state(self) -> dict:
        """Every link with its analytics, plus the slug counter."""
        return {
            "by_slug": {slug: url.copy()
                        for slug, url in self._by_slug.items()},
            "by_long": {long_url: list(slugs)
                        for long_url, slugs in self._by_long.items()},
            "counter": self._counter,
        }

    def install_state(self, state: dict) -> None:
        self._by_slug = {slug: url.copy()
                         for slug, url in state["by_slug"].items()}
        self._by_long = {long_url: list(slugs)
                         for long_url, slugs in state["by_long"].items()}
        self._counter = state["counter"]

    def _require(self, slug: str) -> ShortUrl:
        short = self._by_slug.get(slug)
        if short is None:
            raise KeyError(f"unknown short URL slug: {slug}")
        return short
