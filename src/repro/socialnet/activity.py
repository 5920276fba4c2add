"""Per-account activity logs.

The paper crawls honeypot activity logs to measure *outgoing* reputation
manipulation (Table 4's "Outgoing Activities" columns).  The platform keeps
an append-only log per account mirroring that data source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional


# Not frozen: a frozen dataclass assigns every field through
# object.__setattr__, tripling construction cost on the hottest
# allocation in the platform write path.
@dataclass(slots=True)
class ActivityRecord:
    """One action performed by an account.

    ``verb`` is one of ``like``, ``comment`` or ``post``; ``target_kind``
    distinguishes likes on posts from likes on pages.
    """

    actor_id: str
    verb: str
    target_id: str
    target_kind: str
    target_owner_id: str
    created_at: int
    via_app_id: Optional[str] = None
    source_ip: Optional[str] = None


class ActivityLog:
    """Append-only store of :class:`ActivityRecord` indexed by actor."""

    def __init__(self) -> None:
        self._by_actor: Dict[str, List[ActivityRecord]] = {}
        self._total = 0
        self._journal: Optional[List[ActivityRecord]] = None

    def record(self, record: ActivityRecord) -> None:
        self._by_actor.setdefault(record.actor_id, []).append(record)
        self._total += 1
        if self._journal is not None:
            self._journal.append(record)

    def start_journal(self) -> List[ActivityRecord]:
        """Start mirroring appends into a side list (shard export)."""
        self._journal = []
        return self._journal

    def stop_journal(self) -> None:
        self._journal = None

    def rollback(self, journal: List[ActivityRecord]) -> None:
        """Un-append every record in ``journal`` (newest last).

        Shard-worker supervision re-executes a quarantined component
        inline, then rolls its activity back so the day merge can
        re-interleave it with the other components' records in global
        event order.  Each record must be its actor's current tail.
        """
        for record in reversed(journal):
            records = self._by_actor[record.actor_id]
            popped = records.pop()
            if popped is not record:  # pragma: no cover - misuse guard
                records.append(popped)
                raise ValueError(
                    "rollback journal does not match the log tail")
            if not records:
                del self._by_actor[record.actor_id]
            self._total -= 1

    def mark(self) -> Dict[str, int]:
        """Per-actor record counts (see :meth:`export_delta`)."""
        return {actor: len(records)
                for actor, records in self._by_actor.items()}

    def export_delta(self, mark: Dict[str, int]
                     ) -> Dict[str, List[ActivityRecord]]:
        """Per-actor records appended since ``mark``."""
        return {actor: records[mark.get(actor, 0):]
                for actor, records in self._by_actor.items()
                if len(records) > mark.get(actor, 0)}

    def apply_delta(self, delta: Dict[str, List[ActivityRecord]]) -> None:
        for records in delta.values():
            for record in records:
                self.record(record)

    def for_actor(self, actor_id: str) -> List[ActivityRecord]:
        """All activity by ``actor_id``, oldest first."""
        return list(self._by_actor.get(actor_id, ()))

    def for_actors(self, actor_ids: Iterable[str]) -> List[ActivityRecord]:
        """Merged activity across ``actor_ids``, sorted by time."""
        merged: List[ActivityRecord] = []
        for actor_id in actor_ids:
            merged.extend(self._by_actor.get(actor_id, ()))
        merged.sort(key=lambda r: r.created_at)
        return merged

    def __len__(self) -> int:
        return self._total
