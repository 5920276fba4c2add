"""Sequential, namespaced entity identifiers.

Entity ids look like ``acct:1042`` or ``app:7``.  Sequential allocation keeps
ids stable under replay and makes test failures readable.
"""

from __future__ import annotations

from typing import Dict


class IdAllocator:
    """Allocates ids of the form ``<kind>:<n>`` with per-kind counters."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}

    def next(self, kind: str) -> str:
        """Allocate and return the next id for ``kind``."""
        if not kind or ":" in kind:
            raise ValueError(f"invalid id kind: {kind!r}")
        n = self._counters.get(kind, 0) + 1
        self._counters[kind] = n
        return f"{kind}:{n}"

    def count(self, kind: str) -> int:
        """Number of ids allocated so far for ``kind``."""
        return self._counters.get(kind, 0)

    def export_state(self) -> Dict[str, int]:
        return dict(self._counters)

    def install_state(self, counters: Dict[str, int]) -> None:
        self._counters = dict(counters)

    @staticmethod
    def kind_of(entity_id: str) -> str:
        """Extract the kind prefix from an id (``acct:12`` -> ``acct``)."""
        kind, sep, suffix = entity_id.partition(":")
        if not sep or not suffix:
            raise ValueError(f"malformed entity id: {entity_id!r}")
        return kind
