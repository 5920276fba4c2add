"""Crash-recoverable campaigns: WAL journaling + day-boundary resume.

A :class:`CampaignRecovery` wraps one countermeasure campaign run with
two durability layers (see ``repro.journal.wal`` for the on-disk
format):

* every request-log row is journaled to a hash-chained, day-segmented
  WAL as it is appended (fsync at each day seal), and
* at every completed campaign day a :class:`CampaignCheckpoint` — one
  link of a chain — is written atomically next to the journal.  Link
  ``k`` carries each part with a ``mark()`` — those whose state grows
  with the campaign (the platform, the token store, the member
  directory, the shadow trace) or adds up (the charge counters, the
  fault decisions, the telemetry registry) — as a delta against link
  ``k-1``'s marks, and every other state part whole, so a day's
  checkpoint costs one day, to build (the marked parts' deltas read
  tails) and to write.

Resume protocol.  The campaign world is *rebuilt* deterministically by
the caller (same seed, same build + pre-campaign sequence), never
unpickled whole: the chain carries only what campaign days mutated.
On top of the rebuilt base world, ``prepare`` then

1. opens the journal, truncating any torn tail to the last intact
   record (never silently replayed — the recovery report says exactly
   what was dropped);
2. picks the newest day ``k`` whose links ``1..k`` all load and whose
   link ``k`` the sealed journal still covers
   (``checkpoint.journal_records`` must equal the journal's record
   count through that day — a checkpoint that outran a chopped journal
   is not used, and a torn middle link ends the chain there), and
   raises :class:`RecoveryError` if a link's part names differ from
   the campaign's ``state_parts()`` (telemetry, the sanitizer or a
   fault plan switched on or off since it was written);
3. replays the journal's rows back into the request log, byte for
   byte;
4. installs links ``1..k`` in order: each advances the clock, walks
   :meth:`CountermeasureCampaign.state_parts` in table order — applying
   the marked parts' deltas (new accounts/posts/pages and engagement
   suffixes, issued tokens and flipped invalidation flags, charge
   counter increments, fault decisions, recruited directory accounts,
   metric increments, shadow-trace growth) and installing every other
   part's state (id counters, RNG streams, limiter windows, ..., the
   campaign's own series) — and discards the scheduler events its day
   already executed; and
5. re-takes the marks, so link ``k+1`` is a delta against link ``k``,
   and hands back the first day still to run.

A resumed run's request log is byte-identical to an uninterrupted run's
(``tests/test_campaign_resume.py`` kills a run with SIGKILL mid-day and
checks the digest).

The ``torn_tail`` fault kind lives here too: when the active fault plan
fires it, the freshly sealed segment's tail is chopped and a
:class:`SimulatedCrash` is raised — at most once per journal lifetime,
guarded by a marker file, so the recovered re-run converges instead of
crash-looping.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.checkpoint import MISSING, CheckpointStore
from repro.journal.wal import EventJournal, JournalRecovery, SimulatedCrash

#: Subdirectory of the journal holding the per-day checkpoint pickles.
_CHECKPOINT_DIR = "checkpoints"
#: Marker file recording that the torn_tail fault already fired for
#: this journal; its presence disarms the fault so a resumed run
#: converges instead of re-tearing the same seal forever.
_TORN_MARKER = "torn-tail.fired"


class RecoveryError(RuntimeError):
    """The journal directory cannot support resuming this campaign."""


# ----------------------------------------------------------------------
# The checkpoint payload
# ----------------------------------------------------------------------
@dataclass
class CampaignCheckpoint:
    """One day's link in the checkpoint chain."""

    day: int
    clock: int
    #: Journal record count through this day — the coverage handshake
    #: that pairs a checkpoint with a (possibly truncated) journal.
    journal_records: int
    #: One payload per ``campaign.state_parts()`` entry: a part with
    #: ``mark()`` ships ``export_delta`` against the previous link's
    #: mark (the campaign-start mark for day 1), every other part its
    #: ``export_state()``; no part has both.  The shadow trace's delta
    #: folds pending bytes, which is digest-neutral here because the
    #: checkpoint sits at a day boundary (see
    #: ``repro.sanitizer.trace._fold``).
    parts: Dict[str, object]


def mark_parts(campaign) -> Dict[str, object]:
    """``mark()`` of every part a checkpoint ships as a delta."""
    return {name: part.mark()
            for name, part in campaign.state_parts().items()
            if hasattr(part, "mark")}


def capture_checkpoint(campaign, day: int, marks: Dict[str, object],
                       journal_records: int) -> CampaignCheckpoint:
    """Snapshot what campaign day ``day`` changed since ``marks``."""
    world = campaign.world
    return CampaignCheckpoint(
        day=day,
        clock=world.clock.now(),
        journal_records=journal_records,
        parts={name: (part.export_delta(marks[name]) if name in marks
                      else part.export_state())
               for name, part in campaign.state_parts().items()},
    )


def install_checkpoint(campaign, checkpoint: CampaignCheckpoint) -> None:
    """Apply the next link of the chain to a rebuilt campaign world."""
    world = campaign.world
    world.clock.advance_to(checkpoint.clock)
    for name, part in campaign.state_parts().items():
        if hasattr(part, "mark"):
            part.apply_delta(checkpoint.parts[name])
        else:
            part.install_state(checkpoint.parts[name])
    # Events the restored days already executed (e.g. milking follow-ups
    # scheduled into the campaign window) must not run twice.
    world.scheduler.discard_until(checkpoint.clock)


# ----------------------------------------------------------------------
# The recovery driver
# ----------------------------------------------------------------------
class CampaignRecovery:
    """Journals, checkpoints and (on request) resumes one campaign.

    Pass an instance to
    :meth:`repro.countermeasures.campaign.CountermeasureCampaign.run`.
    ``resume=False`` forces a fresh journal even over an existing
    directory; ``resume=True`` (the default) resumes when the directory
    holds a matching journal and starts fresh otherwise.
    """

    def __init__(self, directory: str, resume: bool = True) -> None:
        self.directory = directory
        self.resume = resume
        self.journal: Optional[EventJournal] = None
        #: Torn-tail recovery report from opening an existing journal.
        self.report: Optional[JournalRecovery] = None
        self.resumed_from_day: Optional[int] = None
        self.store: Optional[CheckpointStore] = None
        #: :func:`mark_parts` at the last checkpointed day boundary (or
        #: at campaign start), which the next checkpoint is a delta
        #: against; recomputed, not stored, on resume.
        self._marks: Dict[str, object] = {}

    # -- campaign.run() protocol ---------------------------------------
    def prepare(self, campaign) -> int:
        """Open/create the journal; returns the first day to run."""
        world = campaign.world
        self._marks = mark_parts(campaign)
        fingerprint = self._fingerprint(campaign)
        self.store = CheckpointStore(
            os.path.join(self.directory, _CHECKPOINT_DIR))
        first_day = 1
        resumable = self.resume and EventJournal.exists(self.directory)
        if resumable:
            first_day = self._try_resume(campaign, fingerprint)
        if self.journal is None:
            if not resumable:
                # An explicitly fresh run re-arms the torn-tail fault; a
                # failed resume keeps the marker, else the same keyed
                # draw would re-tear the same seal forever.
                self._remove_torn_marker()
            self.store.clear()
            self.journal = EventJournal.create(self.directory, fingerprint)
            first_day = 1
        world.api.log.attach_journal(self.journal)
        return first_day

    def begin_day(self, campaign, campaign_day: int) -> None:
        self.journal.begin_day(campaign_day)

    def on_day_complete(self, campaign, campaign_day: int) -> None:
        self.journal.seal_day()
        checkpoint = capture_checkpoint(campaign, campaign_day,
                                        self._marks, self.journal.records)
        self._marks = mark_parts(campaign)
        # The checkpoint must carry the day's live tokens verbatim — a
        # resumed run re-issues byte-identical Graph API calls against
        # the same tokens.  The store writes only to the experiment's
        # private checkpoint directory, never to exported artifacts.
        # (RL103 does not flag this: the taint engine does not resolve
        # part.export_delta() through the parts table.)
        self.store.save(f"day-{campaign_day:05d}", checkpoint)
        self._maybe_tear_tail(campaign, campaign_day)

    def finish(self, campaign) -> None:
        campaign.world.api.log.detach_journal()

    # -- resume internals ----------------------------------------------
    def _fingerprint(self, campaign) -> dict:
        world = campaign.world
        config = campaign.config
        return {
            "format": "repro-journal-v5",
            "seed": world.rng.master_seed,
            "scale": world.config.scale,
            "days": config.days,
            "posts_per_day": config.posts_per_day,
            "networks": list(config.networks),
            "base_rows": len(world.api.log),
        }

    def _try_resume(self, campaign, fingerprint: dict) -> int:
        journal, report = EventJournal.open(self.directory)
        self.report = report
        if journal.meta != fingerprint:
            raise RecoveryError(
                f"journal at {self.directory} belongs to a different "
                f"campaign configuration ({journal.meta!r} != "
                f"{fingerprint!r})")
        chain = self._covered_chain(journal)
        if not chain:
            # Sealed days without a usable day-1 checkpoint (e.g. the
            # crash landed between seal and checkpoint write on day 1):
            # nothing to resume from, start over on a fresh journal.
            return 1
        # Telemetry, the sanitizer and the fault injector are parts
        # only while on, and the fingerprint does not record them: a
        # resume that turned one on would restart it at this day.
        parts = campaign.state_parts()
        for checkpoint in chain:
            missing = sorted(set(parts) - set(checkpoint.parts))
            extra = sorted(set(checkpoint.parts) - set(parts))
            if missing or extra:
                raise RecoveryError(
                    f"the day {checkpoint.day} checkpoint in "
                    f"{self.directory} does not match this campaign's "
                    f"state parts (missing: {', '.join(missing) or 'none'}"
                    f"; extra: {', '.join(extra) or 'none'}); resume with "
                    f"the telemetry, sanitizer and fault plan of the run "
                    f"that wrote it")
        last = chain[-1]
        journal.drop_days_after(last.day)
        log = campaign.world.api.log
        rows = list(journal.replay_rows())
        if len(rows) != last.journal_records:  # pragma: no cover
            raise RecoveryError(
                f"journal replay produced {len(rows)} rows but the day "
                f"{last.day} checkpoint recorded {last.journal_records}")
        log.append_exported(rows)
        for checkpoint in chain:
            install_checkpoint(campaign, checkpoint)
        self._marks = mark_parts(campaign)
        self.journal = journal
        self.resumed_from_day = last.day + 1
        return last.day + 1

    def _covered_chain(self, journal: EventJournal
                       ) -> List[CampaignCheckpoint]:
        """Checkpoints ``1..k`` for the newest day ``k`` whose links all
        load and whose link ``k`` the sealed journal covers."""
        chain: List[CampaignCheckpoint] = []
        for day in range(1, journal.last_sealed_day + 1):
            checkpoint = self.store.load(f"day-{day:05d}")
            if checkpoint is MISSING:
                break
            chain.append(checkpoint)
        while chain and (chain[-1].journal_records
                         != journal.records_through_day(chain[-1].day)):
            chain.pop()
        return chain

    # -- torn-tail chaos -----------------------------------------------
    def _torn_marker_path(self) -> str:
        return os.path.join(self.directory, _TORN_MARKER)

    def _remove_torn_marker(self) -> None:
        try:
            os.remove(self._torn_marker_path())
        except OSError:
            pass

    def _maybe_tear_tail(self, campaign, campaign_day: int) -> None:
        injector = campaign.world.faults
        if injector is None or os.path.exists(self._torn_marker_path()):
            return
        nbytes = injector.decide_torn_tail(campaign_day)
        if not nbytes:
            return
        with open(self._torn_marker_path(), "w",
                  encoding="utf-8") as handle:
            handle.write(f"day {campaign_day}: tore {nbytes} byte(s)\n")
            handle.flush()
            os.fsync(handle.fileno())
        chopped = self.journal.chop_tail(nbytes)
        campaign.world.api.log.detach_journal()
        raise SimulatedCrash(
            f"torn_tail fault: chopped {chopped} byte(s) off the day "
            f"{campaign_day} segment and crashed")

    # -- reporting -----------------------------------------------------
    def describe(self) -> str:
        lines = []
        if self.resumed_from_day is not None:
            lines.append(f"campaign resumed from day "
                         f"{self.resumed_from_day}")
        if self.report is not None:
            lines.append("journal recovery: " + self.report.describe())
        if self.journal is not None:
            lines.append(f"journal: {self.journal.records} row(s) "
                         f"sealed through day "
                         f"{self.journal.last_sealed_day}")
        return "\n".join(lines)
