"""Crash-recovery acceptance: a campaign killed with SIGKILL (or torn
by a journal-tail fault) and resumed must reproduce the byte-identical
request-log digest of an uninterrupted run.

Each scenario runs ``resume_driver.py`` in subprocesses — real process
death, a real journal directory on disk, and digest comparison across
process boundaries.  The hash seed is left to the environment, except
where a test pins two different ones to prove it does not matter.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest

DRIVER = pathlib.Path(__file__).parent / "resume_driver.py"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _run_driver(*args, hashseed=None, timeout=600):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    return subprocess.run(
        [sys.executable, str(DRIVER), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=timeout)


def _parse(stdout):
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


@pytest.fixture(scope="module")
def reference():
    """Uninterrupted, journal-less run: the digest to converge to."""
    result = _run_driver()
    assert result.returncode == 0, result.stderr[-2000:]
    return _parse(result.stdout)


@pytest.fixture(scope="module")
def sanitized_reference(tmp_path_factory):
    """Uninterrupted journaled run with the reprosan trace recording:
    the shadow trace every crash-resumed run must reproduce exactly."""
    root = tmp_path_factory.mktemp("sanitized-ref")
    result = _run_driver("--journal", root / "journal",
                         "--sanitize", root / "trace")
    assert result.returncode == 0, result.stderr[-2000:]
    parsed = _parse(result.stdout)
    parsed["trace_dir"] = root / "trace"
    return parsed


def test_journaled_run_matches_journal_less_reference(tmp_path,
                                                      reference):
    result = _run_driver("--journal", tmp_path / "journal")
    assert result.returncode == 0, result.stderr[-2000:]
    parsed = _parse(result.stdout)
    assert parsed["digest"] == reference["digest"]
    assert parsed["rows"] == reference["rows"]
    assert parsed["resumed_from"] == "None"
    assert "sealed through day 12" in parsed["report"]
    # Workload-derived metrics (journal_/shard_ families excluded)
    # must not notice the journal either.
    assert (parsed["telemetry_fingerprint"]
            == reference["telemetry_fingerprint"])


def test_sanitized_journaled_run_is_byte_identical(reference,
                                                   sanitized_reference):
    """The identity contract across process boundaries: turning the
    sanitizer (and the journal) on changes nothing observable."""
    assert sanitized_reference["digest"] == reference["digest"]
    assert sanitized_reference["rows"] == reference["rows"]
    assert (sanitized_reference["telemetry_fingerprint"]
            == reference["telemetry_fingerprint"])


def test_sigkill_mid_day_then_resume_is_byte_identical(
        tmp_path, reference, sanitized_reference):
    journal = tmp_path / "journal"
    crashed = _run_driver("--journal", journal, "--kill-day", 6,
                          "--sanitize", tmp_path / "crashed-trace")
    assert crashed.returncode == -signal.SIGKILL, (
        f"expected SIGKILL death, got rc={crashed.returncode}: "
        f"{crashed.stderr[-2000:]}")

    resumed = _run_driver("--journal", journal,
                          "--sanitize", tmp_path / "resumed-trace")
    assert resumed.returncode == 0, resumed.stderr[-2000:]
    parsed = _parse(resumed.stdout)
    # Days 1-5 were sealed + checkpointed; the half-written day-6
    # segment is dropped on open and day 6 re-executes.
    assert parsed["resumed_from"] == "6"
    assert parsed["digest"] == reference["digest"]
    assert parsed["rows"] == reference["rows"]
    assert "resumed from day 6" in parsed["report"]
    # The day-5 checkpoint restored the metrics registry wholesale, so
    # the recovered run's telemetry converges on the uninterrupted
    # reference too.
    assert (parsed["telemetry_fingerprint"]
            == reference["telemetry_fingerprint"])
    # The checkpoint also carried the shadow trace: the resumed run's
    # sanitizer trace equals the uninterrupted journaled run's with NO
    # streams ignored — clock reads, journal frames and all.
    assert (parsed["sanitizer_fingerprint"]
            == sanitized_reference["sanitizer_fingerprint"])
    from repro.sanitizer import diff_manifests, load_manifest

    diff = diff_manifests(
        load_manifest(str(sanitized_reference["trace_dir"])),
        load_manifest(str(tmp_path / "resumed-trace")))
    assert diff.equal, diff.render()


def test_second_crash_after_a_resume_resumes_through_the_chain(
        tmp_path, reference, sanitized_reference):
    """A resume re-takes the checkpoint marks: links 6-8, written by a
    resumed run, are deltas against link 5, so a run killed on day 6,
    resumed, killed again on day 9 and resumed once more converges."""
    journal = tmp_path / "journal"
    for kill_day in (6, 9):
        crashed = _run_driver("--journal", journal, "--kill-day", kill_day,
                              "--sanitize", tmp_path / f"trace-{kill_day}")
        assert crashed.returncode == -signal.SIGKILL, (
            f"expected SIGKILL death on day {kill_day}, got "
            f"rc={crashed.returncode}: {crashed.stderr[-2000:]}")

    resumed = _run_driver("--journal", journal,
                          "--sanitize", tmp_path / "resumed-trace")
    assert resumed.returncode == 0, resumed.stderr[-2000:]
    parsed = _parse(resumed.stdout)
    assert parsed["resumed_from"] == "9"
    assert parsed["digest"] == reference["digest"]
    assert parsed["rows"] == reference["rows"]
    assert (parsed["telemetry_fingerprint"]
            == reference["telemetry_fingerprint"])
    assert (parsed["sanitizer_fingerprint"]
            == sanitized_reference["sanitizer_fingerprint"])
    from repro.sanitizer import diff_manifests, load_manifest

    diff = diff_manifests(
        load_manifest(str(sanitized_reference["trace_dir"])),
        load_manifest(str(tmp_path / "resumed-trace")))
    assert diff.equal, diff.render()


def test_a_torn_middle_link_ends_the_chain(tmp_path, reference):
    """Links 4 and 5 are deltas against a torn link 3, so the resume
    restarts from day 3 instead of skipping over it."""
    journal = tmp_path / "journal"
    crashed = _run_driver("--journal", journal, "--kill-day", 6)
    assert crashed.returncode == -signal.SIGKILL, (
        f"expected SIGKILL death, got rc={crashed.returncode}: "
        f"{crashed.stderr[-2000:]}")
    link = journal / "checkpoints" / "day-00003.pkl"
    data = link.read_bytes()
    link.write_bytes(data[:len(data) // 2])

    resumed = _run_driver("--journal", journal)
    assert resumed.returncode == 0, resumed.stderr[-2000:]
    parsed = _parse(resumed.stdout)
    assert parsed["resumed_from"] == "3"
    assert parsed["digest"] == reference["digest"]
    assert parsed["rows"] == reference["rows"]
    assert (parsed["telemetry_fingerprint"]
            == reference["telemetry_fingerprint"])


def test_a_journal_of_whole_state_checkpoints_is_refused(tmp_path):
    """Journals whose checkpoints ship a part whole that is now a delta
    part are refused instead of applied as a chain: ``repro-journal-v1``
    (whole-state checkpoints) and ``-v2`` (whole telemetry, charge
    counters and fault decisions, which applied as deltas would double
    every counter).  So are ``-v3``, whose checkpoints pickle accounts
    and ledger sightings with a ``__dict__``, and ``-v4``, whose
    checkpoints pickle ``Like`` objects beside the activity records and
    accounts with an ``email`` slot: neither loads here, and the store
    would read every such checkpoint as missing and silently resume
    from an earlier day."""
    journal = tmp_path / "journal"
    crashed = _run_driver("--journal", journal, "--kill-day", 3)
    assert crashed.returncode == -signal.SIGKILL, (
        f"expected SIGKILL death, got rc={crashed.returncode}: "
        f"{crashed.stderr[-2000:]}")
    meta_path = journal / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    assert meta["format"] == "repro-journal-v5"
    for old_format in ("repro-journal-v1", "repro-journal-v2",
                       "repro-journal-v3", "repro-journal-v4"):
        meta["format"] = old_format
        meta_path.write_text(json.dumps(meta), encoding="utf-8")

        resumed = _run_driver("--journal", journal)
        assert resumed.returncode != 0
        assert "RecoveryError" in resumed.stderr
        assert old_format in resumed.stderr


def test_torn_tail_is_detected_truncated_and_converges(tmp_path):
    journal = tmp_path / "journal"
    # Torn reference: same fault plan, no journal (the torn_tail kind
    # is only consulted when a journal is attached).
    reference = _run_driver("--torn-day", 4)
    assert reference.returncode == 0, reference.stderr[-2000:]
    ref = _parse(reference.stdout)

    crashed = _run_driver("--journal", journal, "--torn-day", 4)
    assert crashed.returncode != 0
    assert "SimulatedCrash" in crashed.stderr
    assert (journal / "torn-tail.fired").exists()

    resumed = _run_driver("--journal", journal, "--torn-day", 4)
    assert resumed.returncode == 0, resumed.stderr[-2000:]
    parsed = _parse(resumed.stdout)
    # Day 4's seal was destroyed by the chop, so its segment is dropped
    # and the run resumes from the day-3 checkpoint.
    assert parsed["resumed_from"] == "4"
    assert "torn tail truncated" in parsed["report"]
    assert parsed["digest"] == ref["digest"]
    assert parsed["rows"] == ref["rows"]
    assert (parsed["telemetry_fingerprint"]
            == ref["telemetry_fingerprint"])


def test_sharded_journaled_run_resumes_after_a_torn_tail(tmp_path,
                                                       reference):
    """The durable path as the benchmark runs it — sharded and
    journaled — resumes too: a two-shard run torn while sealing day 4
    restarts from day 4 and converges on the serial references."""
    torn_reference = _run_driver("--torn-day", 4)
    assert torn_reference.returncode == 0, torn_reference.stderr[-2000:]
    torn_ref = _parse(torn_reference.stdout)

    journal = tmp_path / "journal"
    crashed = _run_driver("--shards", 2, "--journal", journal,
                          "--torn-day", 4)
    assert crashed.returncode != 0
    assert "SimulatedCrash" in crashed.stderr

    resumed = _run_driver("--shards", 2, "--journal", journal,
                          "--torn-day", 4)
    assert resumed.returncode == 0, resumed.stderr[-2000:]
    parsed = _parse(resumed.stdout)
    assert parsed["shards"] == "2"
    assert parsed["resumed_from"] == "4"
    assert parsed["digest"] == reference["digest"]
    assert parsed["rows"] == reference["rows"]
    assert (parsed["telemetry_fingerprint"]
            == torn_ref["telemetry_fingerprint"])


def test_fresh_run_over_existing_journal_starts_from_day_one(tmp_path,
                                                             reference):
    journal = tmp_path / "journal"
    first = _run_driver("--journal", journal)
    assert first.returncode == 0, first.stderr[-2000:]

    again = _run_driver("--journal", journal, "--no-resume")
    assert again.returncode == 0, again.stderr[-2000:]
    parsed = _parse(again.stdout)
    assert parsed["resumed_from"] == "None"
    assert parsed["digest"] == reference["digest"]


def test_runs_do_not_depend_on_the_hash_seed(tmp_path):
    """The (seed, scale, config) triple alone defines a run: two string
    hash seeds give the same request log, metrics and shadow trace, and
    a run SIGKILLed under one hash seed and resumed under another
    converges to the same digest."""
    runs = {}
    for hashseed in (1, 2):
        result = _run_driver("--sanitize", tmp_path / f"trace-{hashseed}",
                             hashseed=hashseed)
        assert result.returncode == 0, result.stderr[-2000:]
        runs[hashseed] = _parse(result.stdout)
    for key in ("digest", "rows", "telemetry_fingerprint",
                "sanitizer_fingerprint"):
        assert runs[1][key] == runs[2][key], key

    journal = tmp_path / "journal"
    crashed = _run_driver("--journal", journal, "--kill-day", 6,
                          hashseed=1)
    assert crashed.returncode == -signal.SIGKILL, (
        f"expected SIGKILL death, got rc={crashed.returncode}: "
        f"{crashed.stderr[-2000:]}")
    resumed = _run_driver("--journal", journal, hashseed=2)
    assert resumed.returncode == 0, resumed.stderr[-2000:]
    parsed = _parse(resumed.stdout)
    assert parsed["resumed_from"] == "6"
    assert parsed["digest"] == runs[1]["digest"]
    assert parsed["rows"] == runs[1]["rows"]
