"""Checkpoint journal: crash-safe record/load round-trips.

The journal is what makes ``repro sweep --resume`` trustworthy, so its
contracts are pinned directly: a recorded result loads bit-identically,
a truncated tail (the record being written when the process died) is
skipped, error records are never treated as completed, and the
spec/point keys are stable under dict reordering.
"""

from __future__ import annotations

import io
import json
import os
import signal

import pytest

from repro.core.checkpoint import (
    SweepJournal,
    default_journal_path,
    point_journal_key,
    resume_guard,
    sweep_spec_key,
)
from repro import settings
from repro.core.experiment import run_point
from repro.core.runner import PointError
from repro.obs.telemetry import read_records
from repro.report.export import result_fingerprint

FAST = dict(events=200, warmup=100, scale=16, n_cores=2)


@pytest.fixture(scope="module")
def result():
    return run_point("zeus", "base", **FAST, use_cache=False)


class TestKeys:
    def test_spec_key_stable_and_discriminating(self):
        a = sweep_spec_key(workloads=["zeus"], configs=["base"], events=200)
        assert a == sweep_spec_key(workloads=["zeus"], configs=["base"], events=200)
        assert a != sweep_spec_key(workloads=["zeus"], configs=["base"], events=400)
        assert len(a) == 16

    def test_point_key_ignores_dict_order(self):
        a = point_journal_key({"workload": "zeus", "key": "base"}, {"a": 1, "b": 2})
        b = point_journal_key({"key": "base", "workload": "zeus"}, {"b": 2, "a": 1})
        assert a == b
        assert a != point_journal_key({"workload": "jbb", "key": "base"}, {"a": 1, "b": 2})

    def test_default_path_under_sweep_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_DIR", str(tmp_path))
        assert settings.get("REPRO_SWEEP_DIR") == str(tmp_path)
        assert default_journal_path("abc") == os.path.join(str(tmp_path), "sweep-abc.jsonl")
        monkeypatch.delenv("REPRO_SWEEP_DIR")
        assert settings.get("REPRO_SWEEP_DIR") == ".repro_sweep"


class TestJournal:
    def test_result_round_trip_bit_identical(self, tmp_path, result):
        path = str(tmp_path / "j.jsonl")
        with SweepJournal(path, resume=False) as journal:
            journal.record_result("k1", {"workload": "zeus", "key": "base"}, result)
            assert journal.recorded == 1
        loaded = SweepJournal(path, resume=True)
        assert loaded.completed_count() == 1
        restored = loaded.result_for("k1")
        assert restored is not None
        assert result_fingerprint(restored) == result_fingerprint(result)
        assert loaded.result_for("missing") is None

    def test_error_records_not_completed(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        err = PointError(workload="zeus", key="base", error="boom",
                         kind="transient", attempts=3)
        with SweepJournal(path, resume=False) as journal:
            journal.record_error("k1", {"workload": "zeus", "key": "base"}, err)
        loaded = SweepJournal(path, resume=True)
        assert loaded.completed_count() == 0
        assert loaded.result_for("k1") is None
        record = loaded.loaded["k1"]
        assert record["outcome"] == "error"
        assert record["error"]["kind"] == "transient"
        assert record["error"]["attempts"] == 3

    def test_truncated_tail_skipped(self, tmp_path, result):
        path = str(tmp_path / "j.jsonl")
        with SweepJournal(path, resume=False) as journal:
            journal.record_result("k1", {"workload": "zeus", "key": "base"}, result)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "key": "k2", "outcome": "ok", "resu')  # killed mid-write
        loaded = SweepJournal(path, resume=True)
        assert loaded.completed_count() == 1
        assert loaded.result_for("k2") is None

    def test_resume_after_torn_tail_keeps_every_record(self, tmp_path, result):
        """A resumed journal must cut the killed writer's partial line
        before appending, or its first record is glued onto the fragment
        and lost on the next resume."""
        path = str(tmp_path / "j.jsonl")
        coords = {"workload": "zeus", "key": "base"}
        with SweepJournal(path, resume=False) as journal:
            journal.record_result("k1", coords, result)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "key": "k2", "outcome": "ok", "resu')  # killed mid-write
        with SweepJournal(path, resume=True) as journal:
            journal.record_result("k2", coords, result)
            journal.record_result("k3", coords, result)
        loaded = SweepJournal(path, resume=True)
        assert sorted(loaded.loaded) == ["k1", "k2", "k3"]
        assert all(loaded.result_for(k) is not None for k in ("k1", "k2", "k3"))

    def test_last_record_per_key_wins(self, tmp_path, result):
        path = str(tmp_path / "j.jsonl")
        err = PointError(workload="zeus", key="base", error="boom")
        with SweepJournal(path, resume=False) as journal:
            journal.record_error("k1", {"workload": "zeus", "key": "base"}, err)
            journal.record_result("k1", {"workload": "zeus", "key": "base"}, result)
        loaded = SweepJournal(path, resume=True)
        assert loaded.completed_count() == 1
        assert loaded.result_for("k1") is not None

    def test_fresh_journal_truncates_stale_file(self, tmp_path, result):
        path = str(tmp_path / "j.jsonl")
        with SweepJournal(path, resume=False) as journal:
            journal.record_result("old", {"workload": "zeus", "key": "base"}, result)
        with SweepJournal(path, resume=False) as journal:
            journal.record_result("new", {"workload": "jbb", "key": "base"}, result)
        loaded = SweepJournal(path, resume=True)
        assert set(loaded.loaded) == {"new"}

    def test_record_carries_fingerprint(self, tmp_path, result):
        path = str(tmp_path / "j.jsonl")
        with SweepJournal(path, resume=False) as journal:
            journal.record_result("k1", {"workload": "zeus", "key": "base"}, result)
        with open(path, "r", encoding="utf-8") as fh:
            record = json.loads(fh.readline())
        assert record["fingerprint"] == result_fingerprint(result)
        assert record["coords"] == {"workload": "zeus", "key": "base"}

    def test_bad_result_record_degrades_to_recompute(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"v": 1, "key": "k1", "outcome": "ok",
                                 "result": {"schema": -1}}) + "\n")
        loaded = SweepJournal(path, resume=True)
        assert loaded.completed_count() == 1  # claims ok ...
        assert loaded.result_for("k1") is None  # ... but never errors the sweep

    def test_fingerprint_mismatch_degrades_to_recompute(
        self, tmp_path, result, monkeypatch
    ):
        """An edited result that still parses must not load as-is."""
        sink = tmp_path / "telemetry.jsonl"
        monkeypatch.setenv("REPRO_TELEMETRY", str(sink))
        path = str(tmp_path / "j.jsonl")
        with SweepJournal(path, resume=False) as journal:
            journal.record_result("k1", {"workload": "zeus", "key": "base"}, result)
        with open(path, "r", encoding="utf-8") as fh:
            record = json.loads(fh.readline())
        record["result"]["clock_ghz"] += 1.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        loaded = SweepJournal(path, resume=True)
        assert loaded.result_for("k1") is None
        (corrupt,) = [r for r in read_records(str(sink)) if r["kind"] == "journal"]
        assert corrupt["action"] == "corrupt"
        assert corrupt["key"] == "k1"
        assert corrupt["reason"] == "fingerprint mismatch"


class TestResumeGuard:
    def test_sigint_prints_resume_command(self, tmp_path, result):
        path = str(tmp_path / "j.jsonl")
        journal = SweepJournal(path, resume=False)
        journal.record_result("k1", {"workload": "zeus", "key": "base"}, result)
        out = io.StringIO()
        with pytest.raises(KeyboardInterrupt):
            with resume_guard(journal, "python -m repro sweep --resume", stream=out):
                os.kill(os.getpid(), signal.SIGINT)
        text = out.getvalue()
        assert "1 completed point(s) checkpointed" in text
        assert "python -m repro sweep --resume" in text
        assert journal._fh is None  # flushed and closed by the handler

    def test_sigterm_exits_143(self, tmp_path):
        out = io.StringIO()
        with pytest.raises(SystemExit) as exc:
            with resume_guard(None, "python -m repro sweep --resume", stream=out):
                os.kill(os.getpid(), signal.SIGTERM)
        assert exc.value.code == 143
        assert "resume with" in out.getvalue()

    def test_handlers_restored(self, tmp_path):
        before_int = signal.getsignal(signal.SIGINT)
        before_term = signal.getsignal(signal.SIGTERM)
        with resume_guard(None, "cmd", stream=io.StringIO()):
            assert signal.getsignal(signal.SIGINT) is not before_int
        assert signal.getsignal(signal.SIGINT) is before_int
        assert signal.getsignal(signal.SIGTERM) is before_term
