"""Crash-recoverable campaigns: WAL journaling + day-boundary resume.

A :class:`CampaignRecovery` wraps one countermeasure campaign run with
two durability layers (see ``repro.journal.wal`` for the on-disk
format):

* every request-log row is journaled to a hash-chained, day-segmented
  WAL as it is appended (fsync at each day seal), and
* at every completed campaign day a :class:`CampaignCheckpoint` — the
  full set of state the day's events mutated — is written atomically
  next to the journal.

Resume protocol.  The campaign world is *rebuilt* deterministically by
the caller (same seed, same build + pre-campaign sequence), never
unpickled whole: a checkpoint carries only what campaign days mutated.
On top of the rebuilt base world, ``prepare`` then

1. opens the journal, truncating any torn tail to the last intact
   record (never silently replayed — the recovery report says exactly
   what was dropped);
2. picks the newest checkpoint the sealed journal still covers
   (``checkpoint.journal_records`` must equal the journal's record
   count through that day — a checkpoint that outran a chopped journal
   is skipped), and raises :class:`RecoveryError` if its part names
   differ from the campaign's ``state_parts()`` (telemetry, the
   sanitizer or a fault plan switched on or off since it was written);
3. replays the journal's rows back into the request log, byte for
   byte;
4. installs the checkpoint overlay: the clock, the platform's growth
   since the campaign-start mark (new accounts/posts/pages, engagement
   suffixes on pre-existing objects, activity-log suffixes), then every
   entry of :meth:`CountermeasureCampaign.state_parts` in table order
   (id counters, RNG streams, tokens, limiter windows, ..., the
   campaign's own series, the telemetry registry and shadow trace);
   and
5. discards already-executed scheduler events and hands back the first
   day still to run.

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
from typing import Dict, Optional

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
    """The state of every registered part at a day boundary."""

    day: int
    clock: int
    #: Journal record count through this day — the coverage handshake
    #: that pairs a checkpoint with a (possibly truncated) journal.
    journal_records: int
    #: ``export_state()`` of every ``campaign.state_parts()`` entry.
    #: The shadow trace's export folds pending bytes, which is
    #: digest-neutral here because the checkpoint sits at a day
    #: boundary (see SanitizerTrace._fold).
    parts: Dict[str, object]
    #: ``SocialPlatform.export_delta`` against the campaign-start mark:
    #: the platform's full state is the built world a resume rebuilds.
    platform: dict


def capture_checkpoint(campaign, day: int, base: dict,
                       journal_records: int) -> CampaignCheckpoint:
    """Snapshot every part campaign days 1..``day`` mutated."""
    world = campaign.world
    return CampaignCheckpoint(
        day=day,
        clock=world.clock.now(),
        journal_records=journal_records,
        parts={name: part.export_state()
               for name, part in campaign.state_parts().items()},
        platform=world.platform.export_delta(base),
    )


def install_checkpoint(campaign, checkpoint: CampaignCheckpoint) -> None:
    """Overlay ``checkpoint`` onto a freshly rebuilt campaign world."""
    world = campaign.world
    world.clock.advance_to(checkpoint.clock)
    world.platform.apply_delta(checkpoint.platform)
    for name, part in campaign.state_parts().items():
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
        #: ``SocialPlatform.mark()`` at campaign start, recomputed (not
        #: stored) on resume: the rebuilt world reproduces it exactly.
        self._base: Optional[dict] = None

    # -- campaign.run() protocol ---------------------------------------
    def prepare(self, campaign) -> int:
        """Open/create the journal; returns the first day to run."""
        world = campaign.world
        self._base = world.platform.mark()
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
                                        self._base, self.journal.records)
        # The checkpoint must carry the live token table verbatim — a
        # resumed run re-issues byte-identical Graph API calls against
        # the same tokens.  The store writes only to the experiment's
        # private checkpoint directory, never to exported artifacts.
        # (RL103 does not flag this: the taint engine does not resolve
        # part.export_state() through the parts table.)
        self.store.save(f"day-{campaign_day:05d}", checkpoint)
        self._maybe_tear_tail(campaign, campaign_day)

    def finish(self, campaign) -> None:
        campaign.world.api.log.detach_journal()

    # -- resume internals ----------------------------------------------
    def _fingerprint(self, campaign) -> dict:
        world = campaign.world
        config = campaign.config
        return {
            "format": "repro-journal-v1",
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
        checkpoint = self._latest_covered_checkpoint(journal)
        if checkpoint is None:
            # Sealed days without a usable checkpoint (e.g. the crash
            # landed between seal and checkpoint write on day 1):
            # nothing to resume from, start over on a fresh journal.
            return 1
        # Telemetry, the sanitizer and the fault injector are parts
        # only while on, and the fingerprint does not record them: a
        # resume that turned one on would restart it at this day.
        parts = campaign.state_parts()
        missing = sorted(set(parts) - set(checkpoint.parts))
        extra = sorted(set(checkpoint.parts) - set(parts))
        if missing or extra:
            raise RecoveryError(
                f"the day {checkpoint.day} checkpoint in "
                f"{self.directory} does not match this campaign's state "
                f"parts (missing: {', '.join(missing) or 'none'}; "
                f"extra: {', '.join(extra) or 'none'}); resume with "
                f"the telemetry, sanitizer and fault plan of the run "
                f"that wrote it")
        journal.drop_days_after(checkpoint.day)
        log = campaign.world.api.log
        rows = list(journal.replay_rows())
        if len(rows) != checkpoint.journal_records:  # pragma: no cover
            raise RecoveryError(
                f"journal replay produced {len(rows)} rows but the day "
                f"{checkpoint.day} checkpoint recorded "
                f"{checkpoint.journal_records}")
        log.append_exported(rows)
        install_checkpoint(campaign, checkpoint)
        self.journal = journal
        self.resumed_from_day = checkpoint.day + 1
        return checkpoint.day + 1

    def _latest_covered_checkpoint(
            self, journal: EventJournal) -> Optional[CampaignCheckpoint]:
        days = []
        for name in self.store.completed():
            if name.startswith("day-"):
                try:
                    days.append(int(name[4:]))
                except ValueError:
                    continue
        for day in sorted(days, reverse=True):
            if day > journal.last_sealed_day:
                continue
            checkpoint = self.store.load(f"day-{day:05d}")
            if checkpoint is MISSING:
                continue
            if checkpoint.journal_records != journal.records_through_day(
                    day):
                continue
            return checkpoint
        return None

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
