"""The atomic checkpoint store behind the campaign's day checkpoints,
and exception propagation out of the serial experiments pass."""

from __future__ import annotations

import os

import pytest

from repro.core.config import StudyConfig
from repro.experiments import runner, table2
from repro.experiments.checkpoint import MISSING, CheckpointStore


# ----------------------------------------------------------------------
# CheckpointStore
# ----------------------------------------------------------------------
def test_store_save_load_round_trip(tmp_path):
    store = CheckpointStore(str(tmp_path / "ckpt"))
    assert store.load("table1") is MISSING
    store.save("table1", {"rows": [1, 2, 3]})
    assert store.load("table1") == {"rows": [1, 2, 3]}
    assert store.completed() == ["table1"]


def test_store_distinguishes_stored_none_from_missing(tmp_path):
    store = CheckpointStore(str(tmp_path))
    store.save("fig4", None)
    assert store.load("fig4") is None
    assert store.load("fig5") is MISSING


def test_store_survives_torn_write(tmp_path):
    store = CheckpointStore(str(tmp_path))
    store.save("table1", "good")
    # A crash mid-write leaves a tmp file; the checkpoint is untouched.
    with open(os.path.join(str(tmp_path), "table2.pkl.tmp"), "wb") as fh:
        fh.write(b"partial")
    assert store.load("table1") == "good"
    assert store.completed() == ["table1"]
    # A torn final file reads as MISSING, not a crash.
    with open(os.path.join(str(tmp_path), "table3.pkl"), "wb") as fh:
        fh.write(b"\x80garbage")
    assert store.load("table3") is MISSING


def test_store_clear_and_manifest(tmp_path):
    store = CheckpointStore(str(tmp_path))
    store.save("table1", 1)
    store.clear()
    assert store.completed() == []


def test_store_rejects_path_traversal(tmp_path):
    store = CheckpointStore(str(tmp_path))
    with pytest.raises(ValueError):
        store.save("../evil", 1)
    with pytest.raises(ValueError):
        store.save(".hidden", 1)


# ----------------------------------------------------------------------
# run_experiments
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def built_artifacts():
    """Build-only artifacts: plans table1/2/3/5 (cheap, no milking)."""
    return runner.build_world(StudyConfig(scale=0.002, seed=13,
                                          network_limit=2))


def test_serial_worker_exception_also_propagates(built_artifacts,
                                                 monkeypatch):
    def exploding(_world):
        raise RuntimeError("serial boom")

    monkeypatch.setattr(table2, "run", exploding)
    with pytest.raises(RuntimeError, match="serial boom"):
        runner.run_experiments(built_artifacts)
