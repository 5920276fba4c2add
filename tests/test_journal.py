"""The durable event journal: WAL framing, chain verification, torn-tail
recovery, and the request-log round-trip it protects."""

from __future__ import annotations

import os

import pytest

from repro.graphapi.log import RequestLog
from repro.graphapi.request import ApiAction
from repro.journal.wal import (
    EventJournal,
    JournalCorruption,
    SimulatedCrash,
)
from repro.sanitizer.trace import SANITIZER
from repro.telemetry.registry import TELEMETRY

ROW_A = (100, 0, "EAAB0001", "u1", "app1", "p1", "10.0.0.1", 64500, "ok")
ROW_B = (160, 0, "EAAB0002", "u2", "app1", "p2", "10.0.0.2", 64500,
         "token_limit")
ROW_C = (86500, 1, "EAAB0001", "u1", "app1", "p3", None, None, "ok")


def _journal_with_two_days(directory):
    journal = EventJournal.create(directory, {"seed": 7})
    journal.begin_day(1)
    journal.append_row(ROW_A)
    journal.append_row(ROW_B)
    journal.seal_day()
    journal.begin_day(2)
    journal.append_row(ROW_C)
    journal.seal_day()
    return journal


def _segment(directory, day):
    return os.path.join(str(directory), f"day-{day:05d}.seg")


def test_round_trip_and_chain_verify(tmp_path):
    directory = str(tmp_path)
    journal = _journal_with_two_days(directory)
    assert journal.records == 3
    assert journal.last_sealed_day == 2
    assert journal.verify_chain() == 3

    reopened, recovery = EventJournal.open(directory)
    assert recovery.clean
    assert recovery.records == 3
    assert recovery.last_sealed_day == 2
    assert reopened.meta == {"seed": 7}
    assert list(reopened.replay_rows()) == [ROW_A, ROW_B, ROW_C]
    assert list(reopened.replay_rows(through_day=1)) == [ROW_A, ROW_B]
    assert reopened.records_through_day(1) == 2
    assert reopened.records_through_day(2) == 3


def test_exists_and_create_clears_previous_run(tmp_path):
    directory = str(tmp_path)
    assert not EventJournal.exists(directory)
    _journal_with_two_days(directory)
    assert EventJournal.exists(directory)
    fresh = EventJournal.create(directory, {"seed": 8})
    assert fresh.records == 0
    assert not os.path.exists(_segment(directory, 1))
    reopened, recovery = EventJournal.open(directory)
    assert recovery.clean and recovery.records == 0
    assert reopened.meta == {"seed": 8}


def test_torn_tail_truncates_to_last_seal(tmp_path):
    """Bytes torn off a sealed day-2 segment kill day 2 but keep day 1."""
    directory = str(tmp_path)
    journal = _journal_with_two_days(directory)
    chopped = journal.chop_tail(5)
    assert chopped == 5

    reopened, recovery = EventJournal.open(directory)
    assert not recovery.clean
    assert recovery.records == 2
    assert recovery.last_sealed_day == 1
    assert recovery.truncated_bytes > 0
    assert recovery.dropped_segments == ["day-00002.seg"]
    assert "torn tail" in recovery.describe()
    assert not os.path.exists(_segment(directory, 2))
    assert list(reopened.replay_rows()) == [ROW_A, ROW_B]
    # The repaired journal verifies end to end and can keep appending.
    assert reopened.verify_chain() == 2
    reopened.begin_day(2)
    reopened.append_row(ROW_C)
    reopened.seal_day()
    assert reopened.verify_chain() == 3


def test_unsealed_segment_and_followers_are_dropped(tmp_path):
    """A crash mid-day leaves a seal-less segment: it and every later
    segment are dropped (the chain cannot vouch for anything beyond)."""
    directory = str(tmp_path)
    journal = _journal_with_two_days(directory)
    journal.begin_day(3)
    journal.append_row(ROW_A)
    journal.abandon()  # closes without a seal frame — simulated crash
    # Simulate a stray later segment that must not be trusted either.
    with open(_segment(directory, 4), "wb") as handle:
        handle.write(b"garbage beyond the torn frame")

    _reopened, recovery = EventJournal.open(directory)
    assert recovery.records == 3
    assert recovery.last_sealed_day == 2
    assert sorted(recovery.dropped_segments) == [
        "day-00003.seg", "day-00004.seg"]
    assert not os.path.exists(_segment(directory, 3))
    assert not os.path.exists(_segment(directory, 4))


def test_mid_file_corruption_fails_closed(tmp_path):
    """A flipped byte inside a sealed segment breaks the chain walk:
    verify_chain raises and open() refuses everything past the flip."""
    directory = str(tmp_path)
    journal = _journal_with_two_days(directory)
    path = _segment(directory, 1)
    blob = bytearray(open(path, "rb").read())
    blob[10] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(blob))

    with pytest.raises(JournalCorruption):
        journal.verify_chain()
    _reopened, recovery = EventJournal.open(directory)
    assert recovery.records == 0
    assert recovery.last_sealed_day == 0
    assert not recovery.clean


def test_drop_days_after_rewinds_chain_head(tmp_path):
    directory = str(tmp_path)
    journal = _journal_with_two_days(directory)
    dropped = journal.drop_days_after(1)
    assert dropped == ["day-00002.seg"]
    assert journal.records == 2
    assert journal.last_sealed_day == 1
    # The chain head rewound with the drop: new appends re-chain from
    # day 1's seal and the whole journal still verifies.
    journal.begin_day(2)
    journal.append_row(ROW_C)
    journal.seal_day()
    assert journal.verify_chain() == 3
    assert list(journal.replay_rows()) == [ROW_A, ROW_B, ROW_C]


def test_append_requires_open_day(tmp_path):
    journal = EventJournal.create(str(tmp_path), {})
    with pytest.raises(RuntimeError):
        journal.append_row(ROW_A)
    journal.begin_day(1)
    with pytest.raises(RuntimeError):
        journal.begin_day(2)
    journal.seal_day()
    with pytest.raises(RuntimeError):
        journal.seal_day()


def test_simulated_crash_is_an_exception_type():
    assert issubclass(SimulatedCrash, RuntimeError)


# ----------------------------------------------------------------------
# RequestLog export/replay round-trip (what the journal actually stores)
# ----------------------------------------------------------------------
def test_export_rows_round_trip_empty_log():
    source, target = RequestLog(), RequestLog()
    rows = source.export_rows(0)
    assert rows == []
    target.append_exported(rows)
    assert len(target) == 0
    assert target.digest() == source.digest()


def test_export_rows_round_trip_single_row_log():
    source = RequestLog()
    source.append_row(123, ApiAction.LIKE_POST, "EAABtok", "user",
                      "app", "post", "10.1.2.3", 64501, "ok")
    rows = source.export_rows(0)
    assert len(rows) == 1
    target = RequestLog()
    target.append_exported(rows)
    assert len(target) == 1
    assert target.digest() == source.digest()
    record = target.record_at(0)
    assert record.action is ApiAction.LIKE_POST
    assert record.token == "EAABtok"
    assert record.outcome == "ok"
    # The replayed log rebuilt its secondary indexes, not just columns.
    assert len(target.for_ip("10.1.2.3")) == 1
    assert len(target.like_requests()) == 1


def test_journaled_log_mirrors_appends(tmp_path):
    log = RequestLog()
    journal = EventJournal.create(str(tmp_path), {})
    journal.begin_day(1)
    log.attach_journal(journal)
    log.append_row(5, ApiAction.LIKE_POST, "EAABx", "u", "a", "p",
                   None, None, "ok")
    assert log.detach_journal() is journal
    journal.seal_day()
    assert list(journal.replay_rows()) == log.export_rows(0)


def _journaled_day(directory, fill):
    """The segment bytes, row-frame count and sanitizer manifest of a
    one-day journal whose rows ``fill(log, journal)`` appends."""
    for plane in (TELEMETRY, SANITIZER):
        plane.reset()
        plane.enable()
    try:
        journal = EventJournal.create(directory, {})
        journal.begin_day(1)
        log = RequestLog()
        log.attach_journal(journal)
        fill(log, journal)
        journal.seal_day()
        with open(_segment(directory, 1), "rb") as handle:
            return (handle.read(),
                    TELEMETRY.counter_value("journal_frames_total",
                                            kind="row"),
                    SANITIZER.manifest())
    finally:
        for plane in (TELEMETRY, SANITIZER):
            plane.disable()
            plane.reset()


def test_a_batch_journals_the_frames_of_one_call_per_row(tmp_path):
    # extend_like_rows and append_exported hand the journal each batch
    # in one call: the frames, the chain, the row-frame count and the
    # sanitizer's per-frame events are those of one call per row.
    wave = (["EAAB0001", "EAAB0002"], ["u1", "u2"], ["app1", "app1"],
            ["10.0.0.1", None], [64500, None], ["ok", "token_limit"])

    def per_row(log, journal):
        for row in zip(*wave):
            token, user, app, ip, asn, outcome = row
            log.append_row(100, ApiAction.LIKE_POST, token, user, app,
                           "p1", ip, asn, outcome)
        for row in (ROW_A, ROW_B, ROW_C):
            journal.append_row(row)

    def batched(log, journal):
        log.extend_like_rows(100, ApiAction.LIKE_POST, "p1", *wave)
        log.append_exported([ROW_A, ROW_B, ROW_C])

    expected = _journaled_day(str(tmp_path / "per_row"), per_row)
    assert expected[1] == 5
    assert _journaled_day(str(tmp_path / "batched"), batched) == expected
