"""The ledger of colluding accounts observed by honeypots.

Every like/comment crawled from a honeypot timeline identifies a colluding
account (and the exploited application it acted through).  The ledger is
the honeypots' institutional memory: countermeasures invalidate "all
tokens observed till day N" or "tokens newly observed each day" straight
from here (§6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple


@dataclass(slots=True)
class Observation:
    """First/last sighting of one colluding account.

    The networks the account acted for are a tuple in first-sighting
    order, read as a set through :attr:`networks`: almost every account
    acts for one network, and a 1-tuple costs 48 bytes where a set
    costs 216.  ``seen_day`` is the day of the latest sighting.
    Slotted, like the platform's accounts, for the same reason: the
    ledger holds one per milked member.
    """

    account_id: str
    app_id: Optional[str]
    first_seen: int
    last_seen: int
    network_order: Tuple[str, ...]
    seen_day: int
    sightings: int = 1

    def __reduce__(self):
        # A field tuple, as ActivityRecord: checkpoints ship the ledger.
        return (Observation, (
            self.account_id, self.app_id, self.first_seen, self.last_seen,
            self.network_order, self.seen_day, self.sightings))

    @property
    def networks(self) -> FrozenSet[str]:
        """The networks this account was seen acting for."""
        return frozenset(self.network_order)


class MilkedTokenLedger:
    """Accumulates account observations with by-day indexes."""

    def __init__(self) -> None:
        self._observations: Dict[str, Observation] = {}
        self._new_by_day: Dict[int, List[str]] = {}
        #: day -> the accounts sighted that day, each at its first
        #: sighting of the day (Observation.seen_day): no set per day.
        self._seen_by_day: Dict[int, List[str]] = {}

    def __len__(self) -> int:
        return len(self._observations)

    def observe(self, account_id: str, network: str, timestamp: int,
                day: int, app_id: Optional[str] = None) -> Observation:
        """Record a sighting of ``account_id`` acting for ``network``."""
        obs = self._observations.get(account_id)
        if obs is None:
            obs = Observation(account_id, app_id, timestamp, timestamp,
                              (network,), day)
            self._observations[account_id] = obs
            self._new_by_day.setdefault(day, []).append(account_id)
            self._seen_by_day.setdefault(day, []).append(account_id)
        else:
            if obs.seen_day != day:
                obs.seen_day = day
                self._seen_by_day.setdefault(day, []).append(account_id)
            obs.last_seen = max(obs.last_seen, timestamp)
            if network not in obs.network_order:
                obs.network_order += (network,)
            obs.sightings += 1
            if app_id is not None and obs.app_id is None:
                obs.app_id = app_id
        return obs

    def get(self, account_id: str) -> Optional[Observation]:
        return self._observations.get(account_id)

    def accounts(self) -> List[str]:
        """Every account ever observed, in first-seen order."""
        ordered: List[str] = []
        for day in sorted(self._new_by_day):
            ordered.extend(self._new_by_day[day])
        return ordered

    def accounts_for_network(self, network: str) -> List[str]:
        return [a for a, obs in self._observations.items()
                if network in obs.network_order]

    def newly_observed_on(self, day: int) -> List[str]:
        """Accounts first seen on simulation day ``day``."""
        return list(self._new_by_day.get(day, ()))

    def observed_on(self, day: int) -> List[str]:
        """Accounts seen *acting* on simulation day ``day``.

        This is the token-level view of "newly observed": an account that
        was milked before, had its token invalidated, and re-joined with a
        fresh token shows up here again on the day the fresh token acts.
        A day lists an account twice only if sightings left the day and
        came back to it, hence the set.
        """
        return sorted(set(self._seen_by_day.get(day, ())))

    def observed_until(self, day: int) -> List[str]:
        """Accounts first seen on or before ``day``."""
        ordered: List[str] = []
        for d in sorted(self._new_by_day):
            if d > day:
                break
            ordered.extend(self._new_by_day[d])
        return ordered

    def multi_network_accounts(self) -> List[str]:
        """Accounts seen acting for more than one collusion network."""
        return [a for a, obs in self._observations.items()
                if len(obs.network_order) > 1]

    def export_state(self) -> tuple:
        """The live indexes (shared, not copied: a checkpoint pickles
        them before the ledger changes again)."""
        return (self._observations, self._new_by_day, self._seen_by_day)

    def install_state(self, state: tuple) -> None:
        self._observations, self._new_by_day, self._seen_by_day = state
