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
   is skipped);
3. replays the journal's rows back into the request log, byte for
   byte;
4. installs the checkpoint overlay: clock, id counters, RNG streams,
   token store, limiter windows, charge counters, fault-injector state,
   per-network state, the platform delta (new accounts/posts/pages,
   engagement suffixes on pre-existing objects, activity-log suffixes),
   shortener analytics and the campaign's own series/ledger/cursors;
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
from typing import Dict, Optional, Tuple

from repro.experiments.checkpoint import MISSING, CheckpointStore
from repro.journal.wal import EventJournal, JournalRecovery, SimulatedCrash
from repro.sanitizer.trace import SANITIZER
from repro.telemetry.registry import TELEMETRY

#: Subdirectory of the journal holding the per-day checkpoint pickles.
_CHECKPOINT_DIR = "checkpoints"
#: Marker file recording that the torn_tail fault already fired for
#: this journal; its presence disarms the fault so a resumed run
#: converges instead of re-tearing the same seal forever.
_TORN_MARKER = "torn-tail.fired"


class RecoveryError(RuntimeError):
    """The journal directory cannot support resuming this campaign."""


# ----------------------------------------------------------------------
# Base marks: platform sizes at campaign start, recomputed (not stored)
# on resume — the rebuilt world reproduces them exactly.
# ----------------------------------------------------------------------
@dataclass
class _PlatformMarks:
    """Sizes of every platform registry when recording began."""

    accounts: int
    posts: int
    pages: int
    post_marks: Dict[str, Tuple[int, int]]
    page_marks: Dict[str, int]
    activity: Dict[str, int]


def _platform_marks(platform) -> _PlatformMarks:
    return _PlatformMarks(
        accounts=len(platform.accounts),
        posts=len(platform.posts),
        pages=len(platform.pages),
        post_marks={post_id: (len(post.likes), len(post.comments))
                    for post_id, post in platform.posts.items()},
        page_marks={page_id: len(page.likes)
                    for page_id, page in platform.pages.items()},
        activity={actor: len(records) for actor, records
                  in platform.activity_log._by_actor.items()},
    )


# ----------------------------------------------------------------------
# The checkpoint payload
# ----------------------------------------------------------------------
@dataclass
class CampaignCheckpoint:
    """Everything one campaign day mutated, as of the day boundary."""

    day: int
    clock: int
    #: Journal record count through this day — the coverage handshake
    #: that pairs a checkpoint with a (possibly truncated) journal.
    journal_records: int
    ids: Dict[str, int]
    rng_states: Dict[str, tuple]
    tokens: dict
    enforcer: dict
    charge_counters: Dict[str, int]
    faults: Optional[dict]
    #: Per-domain ``CollusionNetwork.export_state()`` payloads.
    networks: Dict[str, dict]
    directory: dict
    platform: dict
    shortener: dict
    campaign: dict
    #: ``TELEMETRY.export_state()`` payload; installed wholesale on
    #: resume so the recovered run's metrics converge on the
    #: uninterrupted reference.  None when telemetry is disabled.
    telemetry: Optional[dict]
    #: ``SANITIZER.export_state()`` payload; installed wholesale on
    #: resume (replacing the rebuild's re-recorded trace) so a resumed
    #: run's shadow trace converges on the uninterrupted reference.
    #: The export's chain fold is digest-neutral here because the
    #: checkpoint sits at a day boundary (see SanitizerTrace._fold).
    #: None when the sanitizer is disabled.
    sanitizer: Optional[dict] = None


def _capture_platform(platform, base: _PlatformMarks) -> dict:
    """The platform delta beyond the campaign-start base marks.

    Registries are insertion-ordered dicts, so "everything beyond the
    base count" is a stable slice; engagement on pre-existing objects
    ships as per-object suffixes.
    """
    accounts = list(platform.accounts.values())
    posts = list(platform.posts.values())
    pages = list(platform.pages.values())
    touched_posts = []
    for post_id, (n_likes, n_comments) in base.post_marks.items():
        post = platform.posts[post_id]
        if len(post.likes) > n_likes or len(post.comments) > n_comments:
            touched_posts.append((post_id, post.likes[n_likes:],
                                  post.comments[n_comments:]))
    touched_pages = []
    for page_id, n_likes in base.page_marks.items():
        page = platform.pages[page_id]
        if len(page.likes) > n_likes:
            touched_pages.append((page_id, page.likes[n_likes:]))
    activity = {}
    for actor, records in platform.activity_log._by_actor.items():
        seen = base.activity.get(actor, 0)
        if len(records) > seen:
            activity[actor] = records[seen:]
    return {
        "new_accounts": accounts[base.accounts:],
        "new_posts": posts[base.posts:],
        "new_pages": pages[base.pages:],
        "touched_posts": touched_posts,
        "touched_pages": touched_pages,
        "activity": activity,
    }


def _install_platform(platform, delta: dict) -> None:
    for account in delta["new_accounts"]:
        platform.accounts[account.account_id] = account
    for post in delta["new_posts"]:
        platform.posts[post.post_id] = post
        platform._posts_by_author.setdefault(post.author_id,
                                             []).append(post)
    for page in delta["new_pages"]:
        platform.pages[page.page_id] = page
    for post_id, likes, comments in delta["touched_posts"]:
        post = platform.posts[post_id]
        for like in likes:
            post.add_like(like)
        for comment in comments:
            post.add_comment(comment)
    for page_id, likes in delta["touched_pages"]:
        page = platform.pages[page_id]
        for like in likes:
            page.add_like(like)
    activity_log = platform.activity_log
    for records in delta["activity"].values():
        for record in records:
            activity_log.record(record)


def _capture_shortener(shortener) -> dict:
    return {slug: (url.click_count, dict(url.clicks_by_country),
                   dict(url.clicks_by_referrer), dict(url.clicks_by_day))
            for slug, url in shortener._by_slug.items()}


def _install_shortener(shortener, state: dict) -> None:
    for slug, (count, by_country, by_referrer, by_day) in state.items():
        url = shortener._by_slug.get(slug)
        if url is None:  # pragma: no cover - defensive
            continue
        url.click_count = count
        url.clicks_by_country = dict(by_country)
        url.clicks_by_referrer = dict(by_referrer)
        url.clicks_by_day = dict(by_day)


def _capture_campaign(campaign) -> dict:
    ledger = campaign.ledger
    crawler = campaign.crawler
    return {
        "series": {domain: (list(series.posts_per_day),
                            list(series.likes_per_day))
                   for domain, series in campaign.series.items()},
        "interventions": list(campaign.interventions),
        "clustering_outcomes": list(campaign.clustering_outcomes),
        "total_invalidated": campaign.invalidator.total_invalidated,
        "ledger": (ledger._observations, ledger._new_by_day,
                   ledger._seen_by_day),
        "crawler": (dict(crawler._like_cursor),
                    dict(crawler._comment_cursor)),
        "honeypots": {domain: (list(h.like_post_ids),
                               list(h.comment_post_ids))
                      for domain, h in campaign.honeypots.items()},
    }


def _install_campaign(campaign, state: dict) -> None:
    for domain, (posts, likes) in state["series"].items():
        series = campaign.series[domain]
        series.posts_per_day = list(posts)
        series.likes_per_day = list(likes)
    campaign.interventions[:] = state["interventions"]
    campaign.clustering_outcomes[:] = state["clustering_outcomes"]
    campaign.invalidator.total_invalidated = state["total_invalidated"]
    ledger = campaign.ledger
    observations, new_by_day, seen_by_day = state["ledger"]
    ledger._observations = observations
    ledger._new_by_day = new_by_day
    ledger._seen_by_day = seen_by_day
    like_cursor, comment_cursor = state["crawler"]
    campaign.crawler._like_cursor = dict(like_cursor)
    campaign.crawler._comment_cursor = dict(comment_cursor)
    for domain, (like_ids, comment_ids) in state["honeypots"].items():
        honeypot = campaign.honeypots[domain]
        honeypot.like_post_ids[:] = like_ids
        honeypot.comment_post_ids[:] = comment_ids


def capture_checkpoint(campaign, day: int, base: _PlatformMarks,
                       journal_records: int) -> CampaignCheckpoint:
    """Snapshot everything campaign days 1..``day`` mutated."""
    world = campaign.world
    directory = next(iter(campaign.networks.values())).directory
    return CampaignCheckpoint(
        day=day,
        clock=world.clock.now(),
        journal_records=journal_records,
        ids=dict(world.ids._counters),
        rng_states=world.rng.export_states(),
        tokens=world.tokens.export_state(),
        enforcer=world.api.enforcer.export_state(),
        charge_counters=dict(world.api.charge_counters),
        faults=(world.faults.export_state()
                if world.faults is not None else None),
        networks={domain: network.export_state()
                  for domain, network in campaign.networks.items()},
        directory={"accounts": list(directory._accounts),
                   "counter": directory._counter},
        platform=_capture_platform(world.platform, base),
        shortener=_capture_shortener(world.shortener),
        campaign=_capture_campaign(campaign),
        telemetry=(TELEMETRY.export_state()
                   if TELEMETRY.enabled else None),
        sanitizer=(SANITIZER.export_state()
                   if SANITIZER.enabled else None),
    )


def install_checkpoint(campaign, checkpoint: CampaignCheckpoint) -> None:
    """Overlay ``checkpoint`` onto a freshly rebuilt campaign world."""
    world = campaign.world
    world.clock.advance_to(checkpoint.clock)
    world.ids._counters = dict(checkpoint.ids)
    world.rng.install_states(checkpoint.rng_states)
    world.tokens.install_state(checkpoint.tokens)
    world.api.enforcer.install_state(checkpoint.enforcer)
    world.api.charge_counters.clear()
    world.api.charge_counters.update(checkpoint.charge_counters)
    # The charge fast path caches (token, app, granted) triples; the
    # restored token store mutated the underlying objects in place, but
    # grant verdicts may have changed — drop the memo wholesale.
    world.api._charge_token_cache.clear()
    if checkpoint.faults is not None and world.faults is not None:
        world.faults.install_state(checkpoint.faults)
    _install_platform(world.platform, checkpoint.platform)
    directory = next(iter(campaign.networks.values())).directory
    directory._accounts = list(checkpoint.directory["accounts"])
    directory._counter = checkpoint.directory["counter"]
    for domain, network in campaign.networks.items():
        network.adopt_state(checkpoint.networks[domain])
    _install_shortener(world.shortener, checkpoint.shortener)
    _install_campaign(campaign, checkpoint.campaign)
    if checkpoint.telemetry is not None:
        TELEMETRY.install_state(checkpoint.telemetry)
    if checkpoint.sanitizer is not None and SANITIZER.enabled:
        SANITIZER.install_state(checkpoint.sanitizer)
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
        self._base: Optional[_PlatformMarks] = None

    # -- campaign.run() protocol ---------------------------------------
    def prepare(self, campaign) -> int:
        """Open/create the journal; returns the first day to run."""
        world = campaign.world
        self._base = _platform_marks(world.platform)
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
        self.store.save(  # reprolint: disable=RL103 — durable resume image carries the live token table by design
            f"day-{campaign_day:05d}", checkpoint)
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
