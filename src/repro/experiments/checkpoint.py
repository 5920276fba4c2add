"""Atomic pickle store for the campaign's day checkpoints.

:class:`~repro.countermeasures.recovery.CampaignRecovery` saves one
:class:`~repro.countermeasures.recovery.CampaignCheckpoint` per
completed campaign day into a :class:`CheckpointStore` next to the
journal.  The checkpoints form a chain — day ``k`` holds the growing
state parts as deltas against day ``k-1`` — so a resume loads days
``1..k`` in order and applies them all.  Each entry is its own pickle
file, written atomically (tmp file + fsync + ``os.replace``) so a
crash mid-write can never corrupt a completed checkpoint; a torn or
unreadable file loads as :data:`MISSING`, which ends the chain there,
so resume falls back to the day before it.  The journal's own
``meta.json`` fingerprint guards resume against a different
configuration.

The store deliberately keeps no in-memory cache of checkpoints: a
resumed run re-reads from disk, which is exactly the crash-recovery
path we want exercised.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, List


class _Missing:
    """Sentinel for "no checkpoint" (distinct from a stored None)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<missing checkpoint>"


#: Returned by :meth:`CheckpointStore.load` when no usable checkpoint
#: exists under the name.
MISSING = _Missing()

_SUFFIX = ".pkl"


class CheckpointStore:
    """Atomic named checkpoints, one pickle file each, in one directory."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, name: str) -> str:
        if not name or os.sep in name or name.startswith("."):
            raise ValueError(f"bad checkpoint name: {name!r}")
        return os.path.join(self.directory, name + _SUFFIX)

    def save(self, name: str, result: Any) -> None:
        """Atomically persist one checkpoint.

        The temp file is fsynced *before* the rename: ``os.replace`` is
        atomic for the directory entry but says nothing about the data
        blocks, and a crash between rename and writeback would leave a
        correctly-named, partially-empty checkpoint — exactly the
        corruption the atomic dance exists to rule out.
        """
        path = self._path(name)
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def load(self, name: str) -> Any:
        """The stored checkpoint, or :data:`MISSING` if absent/corrupt."""
        try:
            with open(self._path(name), "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return MISSING
        # Annotated salvage path: unpickling a torn/stale checkpoint can
        # raise nearly anything, and "treat as never written, fall back
        # to an older one" is the crash-recovery contract this store
        # exists for.
        except Exception:  # reprolint: disable=RL005 — torn pickle ⇒ MISSING
            return MISSING

    def completed(self) -> List[str]:
        """Names of checkpoints on disk (sorted)."""
        try:
            entries = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(entry[:-len(_SUFFIX)] for entry in entries
                      if entry.endswith(_SUFFIX))

    def clear(self) -> None:
        """Drop every checkpoint (fresh, non-resumed run)."""
        for entry in self.completed():
            try:
                os.remove(self._path(entry))
            except OSError:  # pragma: no cover - racy fs
                pass
