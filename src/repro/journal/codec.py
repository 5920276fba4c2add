"""The approved frame codec for journal row payloads.

``R`` frames carry one exported request-log row.  This module is the
one place where a row is turned into frame bytes and back: the
encode/decode pair lives side by side so the round-trip property —
``decode_row(encode_row(r)) == r`` for any row of JSON-safe scalars —
is reviewed as one unit.  ``tests/test_journal_codec_fuzz.py`` pins
the codec itself, and ``tests/test_journal.py`` pins that journaled
rows replay byte-identical (``test_round_trip_and_chain_verify``,
``test_torn_tail_truncates_to_last_seal``,
``test_drop_days_after_rewinds_chain_head`` and
``test_journaled_log_mirrors_appends`` fail if a row ``EventJournal``
writes no longer replays as the same row).

Rows are rendered with ``repr()`` and parsed with
``ast.literal_eval``: total for the tuple-of-scalars shape the request
log exports, byte-stable across interpreter runs (no hash salting, no
pickle protocol drift), and safe to evaluate from a possibly-torn
file.  The journal is the request log's durable image, so the encoded
row carries the live token string — a redacted digest could not
reproduce the byte-identical log the recovery contract promises.
"""

from __future__ import annotations

from ast import literal_eval

#: First payload byte of a row frame.
ROW_TAG = b"R"


def encode_row(row: tuple) -> bytes:
    """One exported request-log row -> ``R``-tagged frame payload."""
    return ROW_TAG + repr(row).encode("utf-8")


def decode_row(payload: bytes) -> tuple:
    """``R``-tagged frame payload -> the exported row tuple."""
    return literal_eval(payload[len(ROW_TAG):].decode("utf-8"))
