"""Geolocation: mapping IPs and users to countries.

Country shares drive Table 2 (Alexa top-country percentages) and Table 5
(short-URL click geolocation).  The paper's visitor base concentrates in
India, Egypt, Turkey, Vietnam, Bangladesh, Pakistan, Indonesia and Algeria.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from typing import Dict, Optional, Sequence, Tuple

from repro.netsim.ip import IPv4Address

#: Default visitor-country mix observed across collusion networks (§4.1).
DEFAULT_COUNTRY_MIX: Sequence[Tuple[str, float]] = (
    ("IN", 0.45),
    ("EG", 0.10),
    ("VN", 0.09),
    ("BD", 0.08),
    ("PK", 0.08),
    ("ID", 0.07),
    ("DZ", 0.05),
    ("TR", 0.04),
    ("US", 0.02),
    ("OTHER", 0.02),
)


class GeoDatabase:
    """Assigns and resolves country codes for IP addresses."""

    def __init__(self, default_mix: Sequence[Tuple[str, float]] = DEFAULT_COUNTRY_MIX) -> None:
        total = sum(weight for _, weight in default_mix)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"country mix weights must sum to 1, got {total}")
        # The draw's inputs, built once: every recruit draws a country.
        self._countries = [country for country, _ in default_mix]
        self._cum_weights = list(accumulate(weight for _, weight in default_mix))
        self._total = self._cum_weights[-1] + 0.0
        self._last = len(self._countries) - 1
        self._by_ip: Dict[IPv4Address, str] = {}

    def assign(self, address: IPv4Address, country: str) -> None:
        """Pin an IP to a country."""
        self._by_ip[address] = country

    def country_of(self, address: IPv4Address) -> Optional[str]:
        return self._by_ip.get(address)

    def sample_country(self, rng: random.Random) -> str:
        """Draw a country from the visitor mix.

        One ``rng.random()`` and a bisect over the cumulative weights
        built at construction: exactly what
        ``rng.choices(countries, weights=weights, k=1)[0]`` computes,
        draw for draw, without rebuilding its inputs on every recruit.
        """
        return self._countries[bisect(self._cum_weights,
                                      rng.random() * self._total,
                                      0, self._last)]

    @staticmethod
    def top_country_share(countries: Sequence[str]) -> Tuple[str, float]:
        """The modal country and its share of ``countries``."""
        if not countries:
            raise ValueError("empty country sample")
        counts: Dict[str, int] = {}
        for country in countries:
            counts[country] = counts.get(country, 0) + 1
        top = max(counts.items(), key=lambda item: (item[1], item[0]))
        return top[0], top[1] / len(countries)
