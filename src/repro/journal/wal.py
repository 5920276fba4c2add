"""Durable write-ahead event journal for the Graph API request log.

The paper's countermeasure deployment ran live for months (§6.3); its
measurement plane had to survive process crashes without losing — or
silently corrupting — collected data.  :class:`EventJournal` gives the
simulator the same property: an append-only, hash-chained record of
every request-log row, written in day-aligned segment files that are
fsynced when the day is sealed.

Format
------
A journal directory holds one ``meta.json`` (configuration fingerprint)
plus one segment file per campaign day, ``day-00001.seg`` … — each a
sequence of *frames*::

    [4-byte big-endian payload length] [payload] [16-byte chain digest]

where ``chain = blake2b(prev_chain || payload, digest_size=16)`` and the
very first frame chains from a fixed genesis string.  The chain runs
*across* segments, so no suffix of the journal can be modified, dropped
or reordered without breaking verification.  Payloads are tagged by
their first byte:

``H``  segment header (JSON: segment day + expected previous chain)
``R``  one request-log row, encoded by :mod:`repro.journal.codec`
``S``  day seal (JSON: day + cumulative row-record count)

Recovery
--------
:meth:`EventJournal.open` walks the chain frame by frame.  The first
frame whose length field runs past the file or whose chain digest does
not verify marks the *torn tail*: the file is truncated back to the
last valid frame, later segments are dropped, and the damage is
reported in the returned :class:`JournalRecovery` — a corrupted tail is
never silently replayed.  :meth:`verify_chain` is the read-only variant
used by audits and tests.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import struct
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.journal.codec import decode_row, encode_row
from repro.sanitizer.trace import SANITIZER as _SANITIZER
from repro.telemetry.registry import TELEMETRY

_GENESIS = b"repro-journal-v1"
_LEN = struct.Struct(">I")
_DIGEST_SIZE = 16
_SEGMENT_RE = re.compile(r"^day-(\d{5})\.seg$")
_META = "meta.json"
#: Upper bound on a single frame payload; a length field beyond this is
#: treated as tail corruption rather than attempted as an allocation.
_MAX_PAYLOAD = 1 << 24


class JournalCorruption(RuntimeError):
    """A chain-verification walk found an invalid frame."""


class SimulatedCrash(RuntimeError):
    """Raised by crash-fault injection to abort the process the way a
    power loss would — after the journal tail has been torn."""


def _chain(prev: bytes, payload: bytes) -> bytes:
    return hashlib.blake2b(prev + payload,
                           digest_size=_DIGEST_SIZE).digest()


@dataclass
class JournalRecovery:
    """What :meth:`EventJournal.open` found (and repaired) on disk."""

    #: Row records that survived recovery, across all kept segments.
    records: int = 0
    #: Last day whose seal frame was intact (0 = none).
    last_sealed_day: int = 0
    #: Bytes truncated off a torn segment tail (0 = tail was clean).
    truncated_bytes: int = 0
    #: Segment files dropped because they followed the torn frame.
    dropped_segments: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.truncated_bytes == 0 and not self.dropped_segments

    def describe(self) -> str:
        if self.clean:
            return (f"journal clean: {self.records} records through "
                    f"day {self.last_sealed_day}")
        dropped = (f", dropped {len(self.dropped_segments)} segment(s)"
                   if self.dropped_segments else "")
        return (f"journal recovered: torn tail truncated "
                f"({self.truncated_bytes} bytes{dropped}); "
                f"{self.records} records through day "
                f"{self.last_sealed_day} survive")


@dataclass
class _Segment:
    day: int
    path: str
    rows: int = 0
    sealed: bool = False
    end_chain: bytes = _GENESIS


class EventJournal:
    """Hash-chained, day-segmented WAL under one directory.

    Rows arrive in batches, one :meth:`append_row` call each (a
    delivery wave's rows, a shard segment, a replayed slice), and each
    row becomes one frame.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.meta: dict = {}
        self._segments: List[_Segment] = []
        self._chain = _GENESIS
        self._handle = None
        self._current: Optional[_Segment] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, directory: str, meta: dict) -> "EventJournal":
        """Start a fresh journal, clearing any previous segments."""
        os.makedirs(directory, exist_ok=True)
        journal = cls(directory)
        for name in sorted(os.listdir(directory)):
            if _SEGMENT_RE.match(name) or name == _META:
                os.remove(os.path.join(directory, name))
        journal.meta = dict(meta)
        with open(os.path.join(directory, _META), "w",
                  encoding="utf-8") as handle:
            json.dump(journal.meta, handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        journal._fsync_directory()
        return journal

    @classmethod
    def exists(cls, directory: str) -> bool:
        """Whether ``directory`` holds a created journal (its meta file)."""
        return os.path.exists(os.path.join(directory, _META))

    @classmethod
    def open(cls, directory: str) -> Tuple["EventJournal", JournalRecovery]:
        """Open an existing journal, recovering a torn tail if present."""
        journal = cls(directory)
        try:
            with open(os.path.join(directory, _META), "r",
                      encoding="utf-8") as handle:
                journal.meta = json.load(handle)
        except (OSError, ValueError):
            journal.meta = {}
        recovery = journal._recover()
        return journal, recovery

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def begin_day(self, day: int) -> None:
        """Open the segment for campaign ``day`` and chain its header."""
        if self._handle is not None:
            raise RuntimeError("previous day not sealed")
        path = os.path.join(self.directory, f"day-{day:05d}.seg")
        segment = _Segment(day=day, path=path)
        self._current = segment
        self._handle = open(path, "wb")
        header = b"H" + json.dumps(
            {"day": day, "prev": self._chain.hex()},
            sort_keys=True).encode("utf-8")
        self._write_frame(header)

    def append_row(self, *rows: tuple) -> None:
        """Journal exported request-log rows, one frame each, in order.

        A batch (a delivery wave's rows, a shard segment, a replayed
        slice) comes in one call, which counts its frames once.  The
        journal is the request log's durable image: resume replays
        these rows back into the in-memory log, so a row must carry the
        live token string — a redacted digest could not reproduce the
        byte-identical log the recovery contract promises.
        """
        if self._handle is None:
            raise RuntimeError("no open day segment")
        for row in rows:
            self._write_frame(encode_row(row))
        self._current.rows += len(rows)
        if TELEMETRY.enabled:
            TELEMETRY.count("journal_frames_total", len(rows), kind="row")

    def seal_day(self) -> None:
        """Seal the open day: seal frame, flush, fsync, close."""
        if self._handle is None or self._current is None:
            raise RuntimeError("no open day segment")
        total = self.records + self._current.rows
        seal = b"S" + json.dumps(
            {"day": self._current.day, "records": total},
            sort_keys=True).encode("utf-8")
        self._write_frame(seal)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self._handle = None
        self._current.sealed = True
        self._current.end_chain = self._chain
        self._segments.append(self._current)
        self._current = None
        self._fsync_directory()
        if TELEMETRY.enabled:
            TELEMETRY.count("journal_frames_total", kind="seal")
            TELEMETRY.count("journal_seals_total")

    def abandon(self) -> None:
        """Close without sealing (process teardown on error paths)."""
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover - racy fs teardown
                pass
            self._handle = None
            self._current = None

    def _write_frame(self, payload: bytes) -> None:
        self._chain = _chain(self._chain, payload)
        self._handle.write(_LEN.pack(len(payload)) + payload + self._chain)
        if _SANITIZER.enabled:
            # Keyed by the WAL's own day, not the sim clock: under a
            # sharded campaign the frames are appended at merge time,
            # and they must land in the same epoch a serial day's
            # appends do.
            _SANITIZER.record_journal(
                self._current.day, payload[:1].decode("ascii"),
                self._chain)

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    # Reading / recovery
    # ------------------------------------------------------------------
    @property
    def records(self) -> int:
        """Row records across sealed segments."""
        return sum(segment.rows for segment in self._segments)

    @property
    def last_sealed_day(self) -> int:
        return self._segments[-1].day if self._segments else 0

    def _segment_paths(self) -> List[Tuple[int, str]]:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        out = []
        for name in names:
            match = _SEGMENT_RE.match(name)
            if match:
                out.append((int(match.group(1)),
                            os.path.join(self.directory, name)))
        out.sort()
        return out

    @staticmethod
    def _scan_frames(path: str, chain: bytes):
        """Yield ``(offset, payload, chain_after)`` for valid frames.

        Stops (without raising) at the first frame whose length or chain
        digest does not verify; the caller decides whether that is a
        recoverable torn tail or a corruption error.
        """
        with open(path, "rb") as handle:
            data = handle.read()
        offset = 0
        size = len(data)
        while offset + _LEN.size <= size:
            (length,) = _LEN.unpack_from(data, offset)
            end = offset + _LEN.size + length + _DIGEST_SIZE
            if length > _MAX_PAYLOAD or end > size:
                break
            payload = data[offset + _LEN.size:offset + _LEN.size + length]
            digest = data[end - _DIGEST_SIZE:end]
            chain = _chain(chain, payload)
            if digest != chain:
                break
            yield offset, payload, chain
            offset = end

    def _recover(self) -> JournalRecovery:
        recovery = JournalRecovery()
        chain = _GENESIS
        torn = False
        for day, path in self._segment_paths():
            if torn:
                recovery.dropped_segments.append(os.path.basename(path))
                os.remove(path)
                continue
            segment = _Segment(day=day, path=path)
            good_end = 0
            sealed_end = None
            rows_at_seal = 0
            rows = 0
            end_chain = chain
            for offset, payload, chain_after in self._scan_frames(path,
                                                                  chain):
                end_chain = chain_after
                good_end = (offset + _LEN.size + len(payload)
                            + _DIGEST_SIZE)
                if payload[:1] == b"R":
                    rows += 1
                elif payload[:1] == b"S":
                    sealed_end = good_end
                    rows_at_seal = rows
            file_size = os.path.getsize(path)
            if sealed_end is None:
                # No intact seal: the whole segment is the torn tail of
                # a crashed day — drop it and everything after.
                recovery.truncated_bytes += file_size
                recovery.dropped_segments.append(os.path.basename(path))
                os.remove(path)
                torn = True
                continue
            if sealed_end < file_size or rows != rows_at_seal:
                # Valid seal followed by torn bytes (a crash during the
                # next day reusing... or fault-injected chop): keep the
                # sealed prefix, drop the rest.
                recovery.truncated_bytes += file_size - sealed_end
                self._truncate_file(path, sealed_end)
                torn = True
                # Chain head must match the sealed prefix: re-walk it.
                end_chain = self._chain_at(path, chain)
                rows = rows_at_seal
            segment.rows = rows
            segment.sealed = True
            segment.end_chain = end_chain
            self._segments.append(segment)
            chain = end_chain
        self._chain = chain
        recovery.records = self.records
        recovery.last_sealed_day = self.last_sealed_day
        if TELEMETRY.enabled:
            TELEMETRY.count("journal_recoveries_total")
            if recovery.truncated_bytes:
                TELEMETRY.count("journal_truncated_bytes_total",
                                recovery.truncated_bytes)
            if recovery.dropped_segments:
                TELEMETRY.count("journal_dropped_segments_total",
                                len(recovery.dropped_segments))
        return recovery

    @staticmethod
    def _truncate_file(path: str, size: int) -> None:
        with open(path, "r+b") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())

    def _chain_at(self, path: str, chain: bytes) -> bytes:
        for _offset, _payload, chain_after in self._scan_frames(path,
                                                                chain):
            chain = chain_after
        return chain

    def replay_rows(self, through_day: Optional[int] = None) -> Iterator[tuple]:
        """Yield exported row tuples from sealed segments, in order."""
        chain = _GENESIS
        for segment in self._segments:
            if through_day is not None and segment.day > through_day:
                break
            for _offset, payload, chain_after in self._scan_frames(
                    segment.path, chain):
                chain = chain_after
                if payload[:1] == b"R":
                    yield decode_row(payload)

    def records_through_day(self, day: int) -> int:
        return sum(segment.rows for segment in self._segments
                   if segment.day <= day)

    def drop_days_after(self, day: int) -> List[str]:
        """Delete segments for days after ``day``; reset the chain head.

        Used on resume to discard sealed days past the chosen
        checkpoint (they will be re-executed and re-journaled).
        """
        if self._handle is not None:
            raise RuntimeError("cannot drop segments with an open day")
        kept: List[_Segment] = []
        dropped: List[str] = []
        for segment in self._segments:
            if segment.day <= day:
                kept.append(segment)
            else:
                dropped.append(os.path.basename(segment.path))
                os.remove(segment.path)
        self._segments = kept
        self._chain = kept[-1].end_chain if kept else _GENESIS
        if dropped:
            self._fsync_directory()
        return dropped

    def chop_tail(self, nbytes: int) -> int:
        """Tear ``nbytes`` off the newest segment (crash-fault hook).

        Simulates the bytes a power loss would eat from the last,
        not-yet-durable writes.  Returns the bytes actually removed.
        """
        if self._handle is not None:
            raise RuntimeError("cannot chop with an open day")
        if not self._segments:
            return 0
        segment = self._segments[-1]
        size = os.path.getsize(segment.path)
        chopped = min(nbytes, max(size - 1, 0))
        if chopped:
            self._truncate_file(segment.path, size - chopped)
        return chopped

    def verify_chain(self) -> int:
        """Walk every frame of every segment, verifying the full chain.

        Returns the row-record count; raises :class:`JournalCorruption`
        on the first invalid frame (read-only: nothing is repaired).
        """
        chain = _GENESIS
        rows = 0
        for day, path in self._segment_paths():
            size = os.path.getsize(path)
            good_end = 0
            for offset, payload, chain_after in self._scan_frames(path,
                                                                  chain):
                chain = chain_after
                good_end = (offset + _LEN.size + len(payload)
                            + _DIGEST_SIZE)
                if payload[:1] == b"R":
                    rows += 1
            if good_end != size:
                raise JournalCorruption(
                    f"invalid frame in {os.path.basename(path)} at "
                    f"offset {good_end} (file size {size})")
        return rows
