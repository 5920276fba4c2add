"""reprosan — the determinism sanitizer's shadow trace.

Every scaling result in this reproduction rests on byte-identical
equivalence invariants (shard-vs-serial campaigns, wave-vs-scalar
admission, kill-9 resume convergence), but an end-of-run digest
mismatch says *that* determinism broke, never *where*.  The sanitizer
works the way TSan/MSan instrument a binary: hooks over the
determinism surface — every named RNG stream draw, ``SimClock`` read,
limiter saturation transition, journal frame append, and shard
fork/merge point — feed a shadow trace that two runs can diff down to
the first divergent event (``repro san diff A B``).

Memory is bounded the way a profiler bounds itself, not the way a
logger doesn't:

* Per ``(stream, day)`` **epoch digests** — a rolling blake2b chain
  over the stream's length-prefixed event payloads, folded and sealed
  when the stream's day changes.  The chain is cumulative *across*
  days, so a divergence on day ``d`` poisons every later epoch and a
  binary search over epochs finds the first bad day.
* **Intra-day samples** — ``(seq, chain-digest)`` checkpoints every
  ``stride`` events; the stride starts at 1 and doubles (thinning the
  kept samples) whenever a day exceeds ``MAX_SAMPLES``, so tiny runs
  bisect to the exact sequence number while huge days stay bounded.
* A **ring buffer** of the last ``RING_SIZE`` raw events per stream
  (method + call-site), so the differ can *name* the first divergent
  event when it falls inside the retained window.

The identity contract — a sanitized run is byte-identical to an
unsanitized one — holds because every hook observes and never draws,
never reads the wall clock, and never perturbs the object it watches;
``tests/test_sanitizer.py`` pins the request-log digest with the
plane on and off.

Fold points (where the pending byte buffer is hashed into the chain)
are a deterministic function of the per-stream event count alone —
sample positions, day seals, and export — so equal event prefixes
always produce equal digests regardless of when a run was
checkpointed, forked, or exported.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Simulation seconds per day (mirrors repro.sim.clock.DAY; duplicated
#: here so the trace plane stays import-light for the sim layer).
_DAY = 86400

#: Digest width for epoch/sample chains (16 bytes = blake2b-128).
DIGEST_SIZE = 16

#: Intra-day sample checkpoints kept per (stream, day) before the
#: sampling stride doubles.
MAX_SAMPLES = 512

#: Raw events retained per stream for exact divergence naming.
RING_SIZE = 256

#: Reserved (non-RNG) stream names.  RNG streams are namespaced with
#: an ``rng:`` prefix so a factory stream can never collide with them.
CLOCK_STREAM = "clock"
LIMITER_STREAM = "limiter"
JOURNAL_STREAM = "journal"
SHARD_STREAM = "shard"


def _peek(chain: bytes, pending: bytearray) -> bytes:
    """The chain digest as if ``pending`` were folded — read-only."""
    if not pending:
        return chain
    digest = hashlib.blake2b(chain, digest_size=DIGEST_SIZE)
    digest.update(pending)
    return digest.digest()


def _fold(chain: bytes, pending: bytearray) -> bytes:
    """Fold buffered payload bytes into the rolling chain digest.

    Fold points alter later chain values, so they must line up across
    compared runs: sample positions and day seals are functions of the
    per-stream event count alone, and a checkpoint's delta export (the
    only other fold) happens at day boundaries, where the buffered bytes
    are exactly what the next day seal would fold anyway.
    """
    if not pending:
        return chain
    digest = hashlib.blake2b(chain, digest_size=DIGEST_SIZE)
    digest.update(pending)
    del pending[:]
    return digest.digest()


class _StreamState:
    """Mutable per-stream trace state (picklable; see export_delta)."""

    __slots__ = ("day", "seq", "total", "chain", "pending", "epochs",
                 "samples", "stride", "ring")

    def __init__(self) -> None:
        self.day: Optional[int] = None
        self.seq = 0                    # events recorded this day
        self.total = 0                  # events recorded overall
        self.chain = b"reprosan-v1\x00\x00\x00\x00\x00"  # 16-byte genesis
        self.pending = bytearray()
        #: sealed days: [(day, event_count, cumulative_digest_hex), ...]
        self.epochs: List[Tuple[int, int, str]] = []
        #: per-day checkpoints: day -> [(seq, cumulative_digest_hex)];
        #: capped at MAX_SAMPLES per day by stride doubling, so memory
        #: grows with days (like epochs), never with events.
        self.samples: Dict[int, List[Tuple[int, str]]] = {}
        self.stride = 1                 # current day's sampling stride
        #: last RING_SIZE raw events: (day, seq, method, site)
        self.ring: deque = deque(maxlen=RING_SIZE)


class SanitizerTrace:
    """The process-global shadow-trace recorder (``SANITIZER``).

    Disabled by default; when disabled every hook is a single
    attribute check.  ``repro run --sanitize DIR`` enables it before
    the world is built and writes the manifest after the study.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._streams: Dict[str, _StreamState] = {}
        self._day = 0
        self._last_clock: Optional[int] = None
        #: When not None, hooks append replayable events here instead
        #: of advancing stream states — the shard capture mode (see
        #: repro.countermeasures.sharding).
        self._capture: Optional[List[tuple]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded state (the enabled flag is preserved)."""
        self._streams = {}
        self._day = 0
        self._last_clock = None
        self._capture = None

    # ------------------------------------------------------------------
    # Day tracking
    # ------------------------------------------------------------------
    def note_time(self, now: int) -> None:
        """Clock advancement hook: keeps the current epoch day."""
        self._day = now // _DAY

    def set_day(self, day: int) -> None:
        """Pin the epoch day explicitly (shard children rewind the
        clock by direct assignment, bypassing ``advance_to``)."""
        self._day = day

    # ------------------------------------------------------------------
    # Recording hooks
    # ------------------------------------------------------------------
    def record_draw(self, stream: str, payload: bytes, method: str,
                    frame: Any) -> None:
        """One RNG draw on a named factory stream."""
        site = (frame.f_code.co_filename, frame.f_lineno)
        self._record("rng:" + stream, self._day, payload, method, site)

    def record_clock(self, now: int) -> None:
        """One ``SimClock.now()`` read, deduplicated by value.

        In capture mode every read is captured and deduplication is
        deferred to :meth:`replay`, where the global ``(when, seq)``
        interleaving — not this process's local read order — decides
        which reads are adjacent.  Deduplicating here against the
        fork-inherited ``_last_clock`` could drop a read the serial
        interleaving keeps.
        """
        capture = self._capture
        if capture is not None:
            capture.append((CLOCK_STREAM, now // _DAY, b"c%d" % now,
                            "now=%d" % now, None))
            return
        if now == self._last_clock:
            return
        self._last_clock = now
        self._apply(CLOCK_STREAM, now // _DAY, b"c%d" % now,
                    "now=%d" % now, None)

    def record_limiter(self, kind: str, key_digest: str) -> None:
        """One limiter saturation transition (``kind`` names the
        site: ``saturate``, ``exhaust``, ...; keys are redacted)."""
        self._record(LIMITER_STREAM, self._day,
                     b"L" + kind.encode() + key_digest.encode(),
                     kind + " " + key_digest, None)

    def record_journal(self, day: int, tag: str, digest: bytes) -> None:
        """One WAL frame append, identified by its chain digest."""
        self._record(JOURNAL_STREAM, day, b"J" + tag.encode() + digest,
                     "frame " + tag + " " + digest.hex(), None)

    def record_shard(self, label: str) -> None:
        """One shard fork/merge point (execution-strategy stream;
        excluded from cross-mode comparisons like telemetry's
        ``shard_`` family)."""
        self._record(SHARD_STREAM, self._day, b"S" + label.encode(),
                     label, None)

    # ------------------------------------------------------------------
    # The record core
    # ------------------------------------------------------------------
    def _record(self, stream: str, day: int, payload: bytes,
                method: str, site) -> None:
        capture = self._capture
        if capture is not None:
            capture.append((stream, day, payload, method, site))
            return
        self._apply(stream, day, payload, method, site)

    def _apply(self, stream: str, day: int, payload: bytes,
               method: str, site) -> None:
        state = self._streams.get(stream)
        if state is None:
            state = self._streams[stream] = _StreamState()
        if day != state.day:
            if state.day is not None:
                state.chain = _fold(state.chain, state.pending)
                state.epochs.append((state.day, state.seq,
                                     state.chain.hex()))
            state.day = day
            state.seq = 0
            state.stride = 1
        pending = state.pending
        pending.append(len(payload))
        pending += payload
        seq = state.seq
        state.ring.append((day, seq, method, site))
        state.seq = seq + 1
        state.total += 1
        if state.seq % state.stride == 0:
            state.chain = _fold(state.chain, pending)
            samples = state.samples.setdefault(day, [])
            samples.append((seq, state.chain.hex()))
            if len(samples) > MAX_SAMPLES:
                # Thin to every other checkpoint and double the stride:
                # kept positions stay congruent to stride-1 mod stride,
                # so two traces with equal prefixes keep comparable
                # seqs no matter when each thinned.
                del samples[::2]
                state.stride *= 2

    # ------------------------------------------------------------------
    # Shard capture (see repro.countermeasures.sharding)
    # ------------------------------------------------------------------
    def begin_capture(self) -> int:
        """Switch hooks to append-only capture; returns the mark."""
        if self._capture is None:
            self._capture = []
        return len(self._capture)

    def capture_mark(self) -> int:
        capture = self._capture
        return 0 if capture is None else len(capture)

    def capture_slice(self, lo: int, hi: int) -> Tuple[tuple, ...]:
        capture = self._capture
        if capture is None:
            return ()
        return tuple(capture[lo:hi])

    def end_capture(self) -> None:
        """Leave capture mode, discarding the raw capture list (the
        caller replays the per-event slices it kept, globally sorted)."""
        self._capture = None

    def replay(self, events: Iterable[tuple]) -> None:
        """Apply captured events to this trace as if recorded live.

        Clock reads are deduplicated here, at replay time, against
        this process's last-seen value — matching what a serial run
        would have recorded in the same global order.
        """
        for stream, day, payload, method, site in events:
            if stream == CLOCK_STREAM:
                now = int(method[4:])
                if now == self._last_clock:
                    continue
                self._last_clock = now
            self._apply(stream, day, payload, method, site)

    # ------------------------------------------------------------------
    # State transfer (checkpoints; resume convergence)
    # ------------------------------------------------------------------
    # A day checkpoint carries only what each stream recorded since the
    # previous day's mark: epochs and ring events append, and a day's
    # samples change only while that day is the stream's open day.
    def mark(self) -> Dict[str, Tuple[int, int]]:
        """Per-stream ``(sealed epochs, events recorded)`` counts."""
        return {name: (len(state.epochs), state.total)
                for name, state in self._streams.items()}

    def export_delta(self, mark: Dict[str, Tuple[int, int]]) -> dict:
        """Each stream's growth since ``mark``.

        Pending bytes are folded first; at the day boundary where a
        checkpoint sits, that is the fold the next day seal would do
        anyway (see :func:`_fold`).
        """
        streams = {}
        for name, state in self._streams.items():
            epochs_before, total_before = mark.get(name, (0, 0))
            if not state.pending and state.total == total_before:
                continue
            state.chain = _fold(state.chain, state.pending)
            epochs = state.epochs[epochs_before:]
            # Every day open at some point since the mark: the sealed
            # ones are in the new epochs, the last is still open.
            touched = {day for day, _count, _chain in epochs}
            touched.add(state.day)
            ring = list(state.ring)
            fresh = min(state.total - total_before, len(ring))
            streams[name] = {
                "day": state.day,
                "seq": state.seq,
                "total": state.total,
                "chain": state.chain,
                "epochs": epochs,
                "samples": {day: list(entries)
                            for day, entries in state.samples.items()
                            if day in touched},
                "stride": state.stride,
                "ring": ring[len(ring) - fresh:],
            }
        return {"streams": streams, "day": self._day,
                "last_clock": self._last_clock}

    def apply_delta(self, delta: dict) -> None:
        """Apply an :meth:`export_delta` onto the trace it was marked on."""
        for name, data in delta["streams"].items():
            state = self._streams.get(name)
            if state is None:
                state = self._streams[name] = _StreamState()
            state.day = data["day"]
            state.seq = data["seq"]
            state.total = data["total"]
            state.chain = data["chain"]
            state.pending = bytearray()
            state.epochs.extend(data["epochs"])
            state.samples.update(data["samples"])
            state.stride = data["stride"]
            state.ring.extend(data["ring"])
        self._day = delta["day"]
        self._last_clock = delta["last_clock"]

    # ------------------------------------------------------------------
    # Introspection / manifest
    # ------------------------------------------------------------------
    def stream_names(self) -> List[str]:
        return sorted(self._streams)

    def event_total(self) -> int:
        return sum(state.total for state in self._streams.values())

    def fingerprint(self, exclude_prefixes: Tuple[str, ...] = ()) -> str:
        """8-hex-char digest over per-stream totals and chains."""
        digest = hashlib.blake2b(digest_size=4)
        for name in sorted(self._streams):
            if exclude_prefixes and name.startswith(exclude_prefixes):
                continue
            state = self._streams[name]
            digest.update(f"{name}|{state.total}|".encode())
            digest.update(_peek(state.chain, state.pending))
        return digest.hexdigest()

    def manifest(self) -> dict:
        """The comparable trace document (``sanitizer.json``).

        Epoch lists include the still-open day as a final entry so two
        completed runs compare uniformly; ring call-sites are
        normalised to repo-relative paths.
        """
        streams = {}
        for name in sorted(self._streams):
            state = self._streams[name]
            chain = _peek(state.chain, state.pending)
            epochs = [list(epoch) for epoch in state.epochs]
            if state.day is not None:
                epochs.append([state.day, state.seq, chain.hex()])
            streams[name] = {
                "total": state.total,
                "epochs": epochs,
                "open_day": state.day,
                "samples": {str(day): [list(sample) for sample in entries]
                            for day, entries in
                            sorted(state.samples.items())},
                "ring": [[day, seq, method, _site_str(site)]
                         for day, seq, method, site in state.ring],
            }
        return {"format": "reprosan-trace", "version": 1,
                "events": self.event_total(), "streams": streams}


def _site_str(site) -> str:
    """Repo-relative ``path:lineno`` for a recorded call-site."""
    if site is None:
        return ""
    filename, lineno = site
    filename = filename.replace("\\", "/")
    marker = "/src/repro/"
    index = filename.rfind(marker)
    if index >= 0:
        filename = "repro/" + filename[index + len(marker):]
    else:
        parts = filename.rsplit("/", 2)
        filename = "/".join(parts[-2:])
    return f"{filename}:{lineno}"


#: The process-global sanitizer, mirroring ``TELEMETRY``'s shape.
SANITIZER = SanitizerTrace()
