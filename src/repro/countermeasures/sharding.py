"""Per-network sharding of the countermeasure campaign's day execution.

The campaign's in-day workload — honeypot like deliveries and the bulk
background-serving charge waves — is partitioned *by collusion network*
and executed in forked worker processes, one per shard, with the
children's state merged back deterministically at the day boundary.
Day-end work (timeline crawls, interventions, clustering, replenishment)
stays in the parent, where it sees exactly the merged state a serial run
would have produced.

Sharding is only sound when the shards cannot observe each other's
mid-day mutations, so a :func:`plan_shards` pass first partitions the
networks into *components* by shared mutable state and certifies the
plan:

* networks that share an OAuth application are merged into one
  component — shared app means shared (or shareable) access tokens,
  hence shared per-token rate-limit windows.  The paper's measured
  ecosystem reproduces exactly this coupling: cross-network membership
  overlap (§4, Table 3) puts the two focal Fig. 5 networks on the same
  app with hundreds of shared tokens, so the default campaign plans to
  a *single* component and runs serially.  Sharding only engages for
  app-disjoint network sets;
* networks that share live token strings or server IPs are merged (the
  token/IP sliding windows are keyed by those strings);
* outgoing background activity (``outgoing_per_hour > 0``) disables
  sharding entirely: that path allocates post ids from the global
  :class:`~repro.sim.ids.IdAllocator` and draws members from the shared
  :class:`~repro.collusion.network.MemberDirectory` stream mid-day, and
  both sequences are defined by the global event interleaving.

An active fault plan is *not* a blocker: fault decisions are keyed
per-subject hashes (see :mod:`repro.faults.plan`), so each child
reproduces exactly the draws its own tokens and networks would have
seen serially, and ships its draw-counter/tally deltas (plus any token
invalidations it performed) home in the day delta.

An ineligible plan is not an error — the campaign simply runs the
serial path and reports why, so ``shards > 1`` is always byte-identical
to ``shards = 1`` (see tests/test_sharded_campaign.py).

Worker supervision: children are run under a :class:`ShardSupervisor`
that watches each fork with a wall-clock deadline.  A child that dies
(crash-fault SIGKILL, OOM-kill), hangs past the deadline, or ships a
truncated/unreadable delta is *quarantined*: its failure is recorded,
and the parent deterministically re-executes the component's
pre-planned :class:`DayEvent` slice inline — mutating its own state
directly, exactly as the serial path would — so the merged day remains
byte-identical to the serial oracle no matter how the child died.

Merge protocol, per day: the parent first creates the day's honeypot
posts in global event order (pinning the id-allocator sequence), then
forks one child per component.  Each child executes its component's
events in (timestamp, seq) order against its copy-on-write world and
ships home a :class:`ShardDayDelta`: request-log rows, platform
activity records and shadow-trace events tagged by event, honeypot post
likes, and payloads of the campaign's state parts
(:meth:`~repro.countermeasures.campaign.CountermeasureCampaign.state_parts`)
— the ``export_state`` of the component's limiter keys and networks
(including each network RNG), and the ``export_delta`` of the additive
parts (charge counters, fault decisions, metrics) against their
``mark()`` at the start of the child's day.  The parent interleaves all
children's log/activity/trace segments by global event order —
restoring exactly what a serial run appends — and installs or applies
the disjoint part payloads through the same table.

The executor is about parallel *safety*, not speed.  Children run one
at a time by construction, whatever the core count: the day loop forks
the next component only after :meth:`ShardSupervisor.run_component`
has drained the previous child's pipe.  A sharded day therefore costs
two to three times a serial one (fork + pickle): on a 2-core VM the
10-day campaign of the disjoint pair fb-autolikers.com / autolike.vn
took 0.59-0.68 s with two shards against 0.22-0.27 s serially at scale
0.007, and 0.88 s against 0.33-0.41 s at scale 0.03, with equal log
digests.  The value is the certified determinism contract and the
measured conflict report.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sanitizer.trace import SANITIZER
from repro.sim.clock import DAY
from repro.telemetry.registry import TELEMETRY
from repro.telemetry.tracing import TRACER


@dataclass(frozen=True)
class DayEvent:
    """One planned in-day campaign action.

    ``seq`` mirrors the scheduler's submission tie-break: executing a
    day's events in ``(when, seq)`` order reproduces the serial
    trajectory exactly.  ``kind`` is ``"request"`` (honeypot like
    request), ``"outgoing"`` (background use of the honeypot token) or
    ``"serving"`` (bulk background charge waves); ``count`` only
    matters for serving events.
    """

    seq: int
    when: int
    kind: str
    domain: str
    count: int = 1


@dataclass(frozen=True)
class ShardConflict:
    """Why two networks were merged into one component."""

    a: str
    b: str
    shared_app: Optional[str] = None
    shared_tokens: int = 0
    shared_ips: int = 0

    def describe(self) -> str:
        parts = []
        if self.shared_app is not None:
            parts.append(f"app {self.shared_app}")
        if self.shared_tokens:
            parts.append(f"{self.shared_tokens} tokens")
        if self.shared_ips:
            parts.append(f"{self.shared_ips} IPs")
        return f"{self.a} <-> {self.b}: shared {', '.join(parts)}"


@dataclass
class ShardPlan:
    """The certified partition of campaign networks into shards."""

    components: List[Tuple[str, ...]]
    conflicts: List[ShardConflict] = field(default_factory=list)
    #: Reasons the plan cannot execute sharded (empty when eligible).
    blockers: List[str] = field(default_factory=list)

    @property
    def eligible(self) -> bool:
        return not self.blockers and len(self.components) > 1

    @property
    def effective_shards(self) -> int:
        return len(self.components) if self.eligible else 1

    def describe(self) -> str:
        lines = [f"shard plan: {len(self.components)} component(s), "
                 f"{'eligible' if self.eligible else 'serial fallback'}"]
        for component in self.components:
            lines.append("  - " + ", ".join(component))
        for conflict in self.conflicts:
            lines.append("  conflict: " + conflict.describe())
        for blocker in self.blockers:
            lines.append("  blocked: " + blocker)
        return "\n".join(lines)


def plan_shards(networks: Dict[str, object], *,
                outgoing_per_hour: float,
                requested_shards: int = 2) -> ShardPlan:
    """Partition ``networks`` into independently executable components.

    Networks sharing an app, a live token string, or a server IP are
    placed in one component (their rate-limit windows alias).  The
    returned plan carries the conflict evidence and any blockers that
    force the serial path regardless of the partition.
    """
    domains = list(networks)
    parent: Dict[str, str] = {d: d for d in domains}

    def find(d: str) -> str:
        while parent[d] != d:
            parent[d] = parent[parent[d]]
            d = parent[d]
        return d

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    tokens = {d: frozenset(networks[d].token_db.values()) for d in domains}
    ips = {d: frozenset(networks[d].ip_pool.addresses) for d in domains}
    apps = {d: networks[d].profile.app_id for d in domains}
    conflicts: List[ShardConflict] = []
    for i, a in enumerate(domains):
        for b in domains[i + 1:]:
            shared_app = apps[a] if apps[a] == apps[b] else None
            shared_tokens = len(tokens[a] & tokens[b])
            shared_ips = len(ips[a] & ips[b])
            if shared_app or shared_tokens or shared_ips:
                conflicts.append(ShardConflict(
                    a=a, b=b, shared_app=shared_app,
                    shared_tokens=shared_tokens, shared_ips=shared_ips))
                union(a, b)

    grouped: Dict[str, List[str]] = {}
    for d in domains:
        grouped.setdefault(find(d), []).append(d)
    components = [tuple(members) for members in grouped.values()]
    components.sort(key=lambda c: c[0])

    blockers: List[str] = []
    if requested_shards <= 1:
        blockers.append("sharding not requested (shards <= 1)")
    if len(components) <= 1:
        blockers.append(
            "all networks fall in one component (shared app/token/IP "
            "state; the paper's cross-network overlap makes this the "
            "default ecosystem's shape)")
    if outgoing_per_hour > 0:
        blockers.append("outgoing background activity allocates global "
                        "post ids and draws from the shared member "
                        "directory mid-day")
    if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
        blockers.append("fork unavailable on this platform")
    return ShardPlan(components=components, conflicts=conflicts,
                     blockers=blockers)


#: State parts a shard child ships as ``export_delta`` against their
#: start-of-day ``mark()`` (its limiter keys and networks ship whole).
_ADDITIVE_PARTS = ("api", "faults", "telemetry")


@dataclass
class ShardDayDelta:
    """Everything one shard child mutated during one campaign day.

    ``rows`` / ``activity`` / ``trace`` hold the child's appended
    request-log rows (as exported tuples), platform activity records
    and captured shadow-trace events; ``segments`` maps them back to
    the originating events as ``(seq, when, row_lo, row_hi, act_lo,
    act_hi, trace_lo, trace_hi)`` slices so the parent can interleave
    multiple children in global event order.  ``states`` and
    ``deltas`` are keyed by state-part name (``export_state`` payloads
    of the whole-moving parts, ``export_delta`` payloads of the
    additive ones); an inline re-execution leaves both empty, its
    state having landed on the parent's parts directly.
    """

    domains: Tuple[str, ...]
    rows: list
    activity: list
    trace: tuple
    segments: List[Tuple[int, int, int, int, int, int, int, int]]
    post_likes: Dict[str, list]
    likes_delivered: Dict[str, int]
    states: Dict[str, object]
    deltas: Dict[str, object]


def _execute_events(campaign, component: Sequence[str], events,
                    request_posts: Dict[int, str], row0: int, act0: int,
                    trace0: int, crash_after: Optional[int] = None):
    """Execute one component's events in order, slicing what each
    event appended.

    Returns ``(segments, likes_delivered)``: each event's ``(seq, when,
    row_lo, row_hi, act_lo, act_hi, trace_lo, trace_hi)`` slice of the
    request log beyond ``row0``, of the platform activity log beyond
    mark ``act0`` and of the sanitizer capture beyond ``trace0``, and
    the likes delivered per domain.  ``crash_after`` is the child-crash
    fault decision: after executing that many events the process
    SIGKILLs itself.
    """
    world = campaign.world
    log = world.api.log
    activity = world.platform.activity_log
    clock = world.clock
    sanitizing = SANITIZER.enabled
    likes_delivered = {domain: 0 for domain in component}
    segments: List[Tuple[int, int, int, int, int, int, int, int]] = []
    for executed, event in enumerate(events):
        if crash_after is not None and executed >= crash_after:
            os.kill(os.getpid(), signal.SIGKILL)
        # A component replays its slice of the day from its start,
        # which may sit before the parent's post-creation pre-pass
        # clock; within the slice timestamps are non-decreasing.  The
        # direct assignment bypasses advance_to, so the sanitizer's
        # epoch day is pinned explicitly.
        clock._now = event.when
        if sanitizing:
            SANITIZER.set_day(event.when // DAY)
        row_lo = len(log) - row0
        act_lo = len(activity) - act0
        trace_lo = SANITIZER.capture_mark() - trace0
        network = campaign.networks[event.domain]
        if event.kind == "request":
            report = network.submit_like_request(
                campaign.honeypots[event.domain].account_id,
                request_posts[event.seq])
            likes_delivered[event.domain] += report.delivered
        elif event.kind == "serving":
            network.serve_background_requests(event.count)
        else:  # pragma: no cover - excluded by plan eligibility
            raise RuntimeError(f"unshardable event kind {event.kind!r}")
        segments.append((event.seq, event.when, row_lo, len(log) - row0,
                         act_lo, len(activity) - act0, trace_lo,
                         SANITIZER.capture_mark() - trace0))
    return segments, likes_delivered


def _execute_component(campaign, component: Sequence[str], events,
                       request_posts: Dict[int, str],
                       crash_after: Optional[int] = None) -> ShardDayDelta:
    """Run one component's day inside the forked child.

    ``crash_after`` is the child-crash fault decision shipped in from
    the parent: after executing that many events the child SIGKILLs
    itself, leaving the supervisor to recover the component.
    """
    world = campaign.world
    log = world.api.log
    platform = world.platform
    parts = campaign.state_parts()
    additive = {name: parts[name] for name in _ADDITIVE_PARTS
                if name in parts}
    marks = {name: part.mark() for name, part in additive.items()}
    row0 = len(log)
    act0 = platform.activity_log.mark()
    # The parent began capture before the pre-pass, so the fork
    # inherited an active capture list; the child's own events start at
    # this mark.
    trace0 = SANITIZER.begin_capture() if SANITIZER.enabled else 0
    # Limiter keys this component owns: its networks' token strings
    # (collected both before and after the day, so windows of tokens
    # dropped mid-day still ship home) and their server IPs.
    owned_keys = set()
    for domain in component:
        network = campaign.networks[domain]
        owned_keys.update(network.token_db.values())
        owned_keys.update(network.ip_pool.addresses)
    segments, likes_delivered = _execute_events(
        campaign, component, events, request_posts, row0, act0, trace0,
        crash_after=crash_after)
    for domain in component:
        owned_keys.update(campaign.networks[domain].token_db.values())
    states = {"enforcer": parts["enforcer"].export_state(owned_keys)}
    for domain in component:
        name = f"network:{domain}"
        states[name] = parts[name].export_state()
    post_likes = {}
    for seq, post_id in request_posts.items():
        likes = platform.posts[post_id].likes
        if likes:
            post_likes[post_id] = list(likes)
    return ShardDayDelta(
        domains=tuple(component),
        rows=log.export_rows(row0),
        activity=platform.activity_log.export_delta(act0),
        trace=SANITIZER.capture_slice(trace0, SANITIZER.capture_mark()),
        segments=segments,
        post_likes=post_likes,
        likes_delivered=likes_delivered,
        states=states,
        deltas={name: part.export_delta(marks[name])
                for name, part in additive.items()},
    )


@dataclass(frozen=True)
class ShardWorkerFailure:
    """One quarantined shard child and why it was quarantined."""

    day: int
    component: Tuple[str, ...]
    reason: str

    def describe(self) -> str:
        return (f"day {self.day}: shard child for "
                f"{'+'.join(self.component)} {self.reason}; "
                f"re-executed serially")


class ShardSupervisor:
    """Runs shard children under a crash/hang watch.

    A child that exits abnormally (e.g. the ``child_crash`` fault's
    SIGKILL), hangs past ``child_timeout`` wall-clock seconds, or ships
    an unreadable delta is quarantined: the failure is recorded in
    :attr:`failures` and ``run_component`` returns ``None``, telling
    the caller to re-execute the component's pre-planned events
    serially in the parent.  The timeout is real wall-clock time — it
    bounds a wedged *process*, not simulated time.
    """

    def __init__(self, child_timeout: float = 600.0) -> None:
        self.child_timeout = child_timeout
        self.failures: List[ShardWorkerFailure] = []

    def run_component(self, campaign, component, events, request_posts,
                      day: int,
                      crash_after: Optional[int] = None,
                      ) -> Optional[ShardDayDelta]:
        """Fork, execute the component's day, ship the delta home."""
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                delta = _execute_component(campaign, component, events,
                                           request_posts,
                                           crash_after=crash_after)
                with os.fdopen(write_fd, "wb") as sink:
                    pickle.dump(delta, sink, protocol=pickle.HIGHEST_PROTOCOL)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        payload, timed_out = self._drain(read_fd, pid)
        _, exit_status = os.waitpid(pid, 0)
        reason = None
        if timed_out:
            reason = (f"hung past the {self.child_timeout:.0f}s deadline "
                      f"and was killed")
        elif exit_status != 0:
            code = os.waitstatus_to_exitcode(exit_status)
            reason = (f"died on signal {-code}" if code < 0
                      else f"exited with status {code}")
        elif not payload:
            reason = "exited cleanly but shipped no delta"
        if reason is None:
            try:
                return pickle.loads(payload)
            except Exception as exc:  # noqa: BLE001 - quarantine any bad payload
                reason = f"shipped an unreadable delta ({exc!r})"
        self.failures.append(ShardWorkerFailure(
            day=day, component=tuple(component), reason=reason))
        return None

    def _drain(self, read_fd: int, pid: int) -> Tuple[bytes, bool]:
        """Read the child's pipe to EOF under the wall-clock deadline.

        Supervising a real forked process: the hang deadline must be
        wall-clock, not sim time, hence the RL001 pragmas.
        """
        deadline = time.monotonic() + self.child_timeout  # reprolint: disable=RL001 — real child supervision
        chunks: List[bytes] = []
        try:
            while True:
                remaining = deadline - time.monotonic()  # reprolint: disable=RL001 — real child supervision
                if remaining <= 0:
                    os.kill(pid, signal.SIGKILL)
                    return b"", True
                ready, _, _ = select.select([read_fd], [], [], remaining)
                if not ready:
                    continue
                data = os.read(read_fd, 1 << 20)
                if not data:
                    return b"".join(chunks), False
                chunks.append(data)
        finally:
            os.close(read_fd)


def _reexecute_inline(campaign, component, events,
                      request_posts: Dict[int, str]) -> ShardDayDelta:
    """Serially re-execute a quarantined component in the parent.

    The events mutate the parent's own limiter windows, network
    objects, token store, posts and charge counters directly — exactly
    like the serial path — so the returned delta is *reduced*: it
    carries only the log rows and activity records (truncated here,
    re-applied by the merge in global event order), the trace slices
    and the delivered counts.  Everything else is already in place.
    """
    world = campaign.world
    log = world.api.log
    activity = world.platform.activity_log
    row0 = len(log)
    act0 = activity.mark()
    # The parent is still in the sharded day's capture mode, so the
    # re-execution's trace events land on the capture list exactly like
    # a child's would; slicing them per event lets the merge replay
    # them in global order alongside the surviving children's.
    trace0 = SANITIZER.capture_mark()
    segments, likes_delivered = _execute_events(
        campaign, component, events, request_posts, row0, act0, trace0)
    rows = log.export_rows(row0)
    log.truncate(row0)
    records = activity.export_delta(act0)
    activity.truncate(act0)
    return ShardDayDelta(
        domains=tuple(component),
        rows=rows,
        activity=records,
        trace=SANITIZER.capture_slice(trace0, SANITIZER.capture_mark()),
        segments=segments,
        post_likes={},
        likes_delivered=likes_delivered,
        states={},
        deltas={},
    )


def run_sharded_day(campaign, plan: ShardPlan, events, day_start: int,
                    likes_today: Dict[str, int],
                    posts_today: Dict[str, int]) -> None:
    """Execute one campaign day under ``plan`` and merge the results.

    Equivalent, state-for-state, to scheduling ``events`` on the world
    scheduler and running them serially (the ``shards = 1`` path).
    Children run under the campaign's :class:`ShardSupervisor`; a
    quarantined component is re-executed inline before the merge.
    """
    world = campaign.world
    api = world.api
    platform = world.platform
    day = day_start // DAY
    # The WAL is suspended for the whole sharded day: rows are journaled
    # once, at the merge below, in exactly the interleaved order the
    # serial path would have appended them.
    wal = api.log.detach_journal()

    # The sanitizer records the whole sharded day in capture mode: the
    # pre-pass and every component's execution append replayable event
    # slices instead of advancing stream chains, and the merge below
    # replays all slices in global (when, seq) order — reproducing the
    # per-stream sequences a serial day applies directly.
    sanitizing = SANITIZER.enabled
    # (when, seq, events) replay pieces: the pre-pass's here, every
    # component's from its delta's trace segments at the merge.
    trace_pieces: List[Tuple[int, int, tuple]] = []
    if sanitizing:
        SANITIZER.record_shard(
            f"fork day={day} components={len(plan.components)}")
        SANITIZER.begin_capture()

    # Pre-pass: create the day's honeypot posts in global event order so
    # the id-allocator sequence matches the serial run exactly.  Request
    # posts are the only in-day allocations (plan eligibility excludes
    # the outgoing path).
    request_posts: Dict[int, str] = {}
    for event in sorted((e for e in events if e.kind == "request"),
                        key=lambda e: (e.when, e.seq)):
        world.clock.advance_to(event.when)
        trace_lo = SANITIZER.capture_mark()
        request_posts[event.seq] = campaign._create_request_post(
            campaign.honeypots[event.domain])
        posts_today[event.domain] += 1
        if sanitizing:
            trace_pieces.append((event.when, event.seq,
                                 SANITIZER.capture_slice(
                                     trace_lo, SANITIZER.capture_mark())))

    component_of = {domain: index
                    for index, component in enumerate(plan.components)
                    for domain in component}
    by_component: Dict[int, list] = {}
    for event in events:
        by_component.setdefault(component_of[event.domain], []).append(event)

    supervisor = campaign.shard_supervisor
    injector = api.faults
    deltas: List[ShardDayDelta] = []
    for index, component in enumerate(plan.components):
        component_events = sorted(by_component.get(index, ()),
                                  key=lambda e: (e.when, e.seq))
        if not component_events:
            continue
        component_posts = {e.seq: request_posts[e.seq]
                           for e in component_events
                           if e.kind == "request"}
        # The crash fault is decided in the parent (so the tally and
        # draws survive the child's death) and shipped into the child.
        crash_after = None
        if injector is not None:
            crash_after = injector.decide_child_crash(
                day, component[0], len(component_events))
        span = TRACER.begin("shard_component", domains="+".join(component),
                            events=len(component_events))
        if TELEMETRY.enabled:
            TELEMETRY.count("shard_components_total")
        delta = supervisor.run_component(
            campaign, component, component_events, component_posts, day,
            crash_after=crash_after)
        if delta is not None and tuple(delta.domains) != tuple(component):
            # A delta for the wrong component means the pipe carried a
            # stale or crossed payload; quarantine it like an
            # unreadable one rather than merging foreign state.
            supervisor.failures.append(ShardWorkerFailure(
                day=day, component=tuple(component),
                reason=f"shipped a delta for component "
                       f"{tuple(delta.domains)!r}"))
            delta = None
        if delta is None:
            if TELEMETRY.enabled:
                TELEMETRY.count("shard_quarantines_total")
            delta = _reexecute_inline(campaign, component,
                                      component_events, component_posts)
        TRACER.end(span)
        deltas.append(delta)

    if sanitizing:
        # Leave capture mode before the WAL reattaches: the merge-time
        # journal appends below must record directly (the serial day's
        # journal stream is exactly this frame sequence).  Events the
        # sharded path captured outside any segment (supervision,
        # tracing, clock reads between components) are discarded with
        # the capture list — a serial day never records them.  Stable
        # sort: a pre-pass piece precedes its event's execution piece,
        # matching the serial create-then-submit order.
        SANITIZER.end_capture()
        for delta in deltas:
            trace = delta.trace
            for seq, when, *_, trace_lo, trace_hi in delta.segments:
                trace_pieces.append((when, seq, trace[trace_lo:trace_hi]))
        trace_pieces.sort(key=lambda piece: (piece[0], piece[1]))
        for _when, _seq, trace_events in trace_pieces:
            SANITIZER.replay(trace_events)
        SANITIZER.record_shard(f"merge day={day} deltas={len(deltas)}")

    # Merge: interleave every child's log/activity segments by global
    # event order, then install the disjoint part payloads.
    if wal is not None:
        api.log.attach_journal(wal)
    stream = []
    for delta in deltas:
        for seq, when, row_lo, row_hi, act_lo, act_hi, *_ in delta.segments:
            stream.append((when, seq, delta, row_lo, row_hi, act_lo,
                           act_hi))
    stream.sort(key=lambda item: (item[0], item[1]))
    log = api.log
    activity = platform.activity_log
    for when, seq, delta, row_lo, row_hi, act_lo, act_hi in stream:
        if row_hi > row_lo:
            log.append_exported(delta.rows[row_lo:row_hi])
        activity.apply_delta(delta.activity[act_lo:act_hi])
    parts = campaign.state_parts()
    for delta in deltas:
        for name, state in delta.states.items():
            parts[name].install_state(state)
        for name, change in delta.deltas.items():
            parts[name].apply_delta(change)
        for post_id, likes in delta.post_likes.items():
            post = platform.posts[post_id]
            for like in likes:
                post.add_like(like)
        for domain, delivered in delta.likes_delivered.items():
            likes_today[domain] += delivered
    world.clock.advance_to(day_start + DAY - 1)
