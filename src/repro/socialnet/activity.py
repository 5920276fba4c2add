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
    distinguishes likes on posts from likes on pages, and the liked
    post or page holds the ``like`` record itself.  ``via_app_id`` (the
    acting app, ``None`` if first-party) and ``source_ip`` are the two
    fingerprints the countermeasures of §6 key on.
    """

    actor_id: str
    verb: str
    target_id: str
    target_kind: str
    target_owner_id: str
    created_at: int
    via_app_id: Optional[str] = None
    source_ip: Optional[str] = None

    def __reduce__(self):
        # Pickle as (class, field tuple), not the default per-record
        # dict of slot names: checkpoints and shard deltas carry every
        # record of a day.
        return (ActivityRecord, (
            self.actor_id, self.verb, self.target_id, self.target_kind,
            self.target_owner_id, self.created_at, self.via_app_id,
            self.source_ip))


class ActivityLog:
    """Append-only store of :class:`ActivityRecord` indexed by actor.

    Records are kept once in append order and once per actor, so a mark
    is a record count and everything since it a slice.
    """

    def __init__(self) -> None:
        self._records: List[ActivityRecord] = []
        self._by_actor: Dict[str, List[ActivityRecord]] = {}

    def record(self, record: ActivityRecord) -> None:
        self._records.append(record)
        self._by_actor.setdefault(record.actor_id, []).append(record)

    def mark(self) -> int:
        """Records appended so far (see :meth:`export_delta`)."""
        return len(self._records)

    def export_delta(self, mark: int) -> List[ActivityRecord]:
        """Records appended since ``mark``, oldest first."""
        return self._records[mark:]

    def apply_delta(self, delta: List[ActivityRecord]) -> None:
        for record in delta:
            self.record(record)

    def truncate(self, mark: int) -> None:
        """Un-append every record since ``mark``.

        Shard-worker supervision re-executes a quarantined component
        inline, then truncates its activity so the day merge can
        re-interleave it with the other components' records in global
        event order.
        """
        by_actor = self._by_actor
        for record in reversed(self._records[mark:]):
            records = by_actor[record.actor_id]
            records.pop()
            if not records:
                del by_actor[record.actor_id]
        del self._records[mark:]

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
        return len(self._records)
