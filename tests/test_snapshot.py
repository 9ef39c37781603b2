"""Crash-safe long runs: mid-run snapshots, resume, and resource guards.

The contract under test (see :mod:`repro.core.snapshot`): a phased run
that is killed or guard-truncated at a phase boundary and later resumed
must produce the *bit-identical* result of the same phased run executed
uninterrupted.  Damaged snapshots are quarantined and restore falls
back, never surfacing a raw exception.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import settings
from repro.core import diskcache, durable
from repro.core import snapshot as snap
from repro.core.system import CMPSystem
from repro.report.export import result_fingerprint
from tests.conftest import make_tiny_system

EVENTS, WARMUP, INTERVAL = 600, 300, 150


@pytest.fixture
def snap_env(monkeypatch, tmp_path):
    """Isolated snapshot dir; all durability knobs cleared."""
    root = tmp_path / "snaps"
    monkeypatch.setenv(snap.ENV_DIR, str(root))
    for var in (snap.ENV_INTERVAL, snap.ENV_RESUME, snap.ENV_DEADLINE,
                snap.ENV_MEM_LIMIT, "REPRO_FAULTS"):
        monkeypatch.delenv(var, raising=False)
    return root


def _config():
    return make_tiny_system()


def _run(config, *, resume=None):
    system = CMPSystem(config, "oltp", seed=3)
    result = system.run(
        EVENTS, warmup_events=WARMUP, config_name="t", resume_snapshot=resume
    )
    return system, result


def _run_to_completion(config, monkeypatch, max_passes=12):
    """Keep resuming (under a zero deadline each pass advances one
    phase) until the run completes; return the final result."""
    for _ in range(max_passes):
        _sys, result = _run(config)
        if not result.extra.get("truncated"):
            return result
    raise AssertionError(f"run did not complete within {max_passes} passes")


class TestPhasedIdentity:
    def test_huge_interval_equals_plain(self, snap_env, monkeypatch):
        cfg = _config()
        _, plain = _run(cfg, resume=False)
        monkeypatch.setenv(snap.ENV_INTERVAL, str(10**9))
        _, phased = _run(cfg)
        assert result_fingerprint(plain) == result_fingerprint(phased)
        assert not list(snap_env.glob("*.rpsn"))  # discarded on completion

    def test_truncate_then_resume_is_noop(self, snap_env, monkeypatch):
        cfg = _config()
        monkeypatch.setenv(snap.ENV_INTERVAL, str(INTERVAL))
        _, expected = _run(cfg)  # uninterrupted phased run
        assert not expected.extra.get("truncated")

        monkeypatch.setenv(snap.ENV_DEADLINE, "0")
        _, partial = _run(cfg)
        assert partial.extra.get("truncated") == 1.0
        assert partial.extra["truncated_warmup_done"] == INTERVAL
        assert list(snap_env.glob("*.rpsn")), "truncation must leave a snapshot"

        monkeypatch.delenv(snap.ENV_DEADLINE)
        system, resumed = _run(cfg)
        assert system.resumed_from_phase == 1
        assert result_fingerprint(resumed) == result_fingerprint(expected)

    def test_interrupt_every_boundary(self, snap_env, monkeypatch):
        """The worst case: one kill per phase boundary, stitched back
        together phase by phase."""
        cfg = _config()
        monkeypatch.setenv(snap.ENV_INTERVAL, str(INTERVAL))
        _, expected = _run(cfg)
        monkeypatch.setenv(snap.ENV_DEADLINE, "0")
        final = _run_to_completion(cfg, monkeypatch)
        assert result_fingerprint(final) == result_fingerprint(expected)

    def test_observers_resume_with_their_state(self, snap_env, monkeypatch):
        """The observer hub is pickled with the hierarchy: an attributed,
        audited run resumed at every boundary ends with the ledgers of
        the uninterrupted run, and its auditor sweeps the restored
        hierarchy."""
        from dataclasses import replace

        for var in ("REPRO_AUDIT", "REPRO_ATTRIBUTION"):
            monkeypatch.delenv(var, raising=False)
        cfg = replace(_config(), attribution=True, audit=True, audit_interval=100)
        monkeypatch.setenv(snap.ENV_INTERVAL, str(INTERVAL))
        _, expected = _run(cfg)
        monkeypatch.setenv(snap.ENV_DEADLINE, "0")
        _, partial = _run(cfg)
        assert partial.extra.get("truncated") == 1.0
        monkeypatch.delenv(snap.ENV_DEADLINE)
        system, resumed = _run(cfg)
        assert system.resumed_from_phase == 1
        assert system.auditor.hierarchy is system.hierarchy
        assert system.hierarchy.link.observer is system.observer
        assert resumed.extra == expected.extra
        assert result_fingerprint(resumed) == result_fingerprint(expected)

    def test_trace_replay_resumes(self, snap_env, monkeypatch):
        from repro.trace.io import record_trace

        cfg = _config()
        pack = record_trace("oltp", n_cores=cfg.n_cores, events_per_core=500,
                            seed=3, l2_lines=cfg.l2.n_lines,
                            l1i_lines=cfg.l1i.n_lines)
        monkeypatch.setenv(snap.ENV_INTERVAL, "200")

        def run_replay():
            system = CMPSystem(cfg, trace=pack)
            return system.run(400, warmup_events=200, config_name="t")

        expected = run_replay()
        monkeypatch.setenv(snap.ENV_DEADLINE, "0")
        partial = run_replay()
        assert partial.extra.get("truncated") == 1.0
        monkeypatch.delenv(snap.ENV_DEADLINE)
        resumed = run_replay()
        assert result_fingerprint(resumed) == result_fingerprint(expected)

    def test_partly_touched_l2_resumes(self, snap_env, monkeypatch):
        """A snapshot taken while some L2 ways were never claimed keeps
        their ``fresh`` counts, and the resumed run claims them in the
        same order as the uninterrupted one."""
        cfg = _config()
        monkeypatch.setenv(snap.ENV_INTERVAL, str(INTERVAL))
        _, expected = _run(cfg)
        monkeypatch.setenv(snap.ENV_DEADLINE, "0")
        _run(cfg)
        (path,) = snap_env.glob("*.rpsn")
        _meta, state = snap.read_snapshot(str(path))
        l2 = state["hierarchy"].l2
        assert any(s.fresh < l2.tags_per_set for s in l2._sets)
        assert any(s.fresh for s in l2._sets)
        monkeypatch.delenv(snap.ENV_DEADLINE)
        system, resumed = _run(cfg)
        assert system.resumed_from_phase == 1
        assert result_fingerprint(resumed) == result_fingerprint(expected)

    def test_restore_rebuilds_derived_state(self, snap_env, monkeypatch):
        """Route tuples, bound taxonomy counters and precomputed link
        sizes are derived state: a snapshot that lacks them (one written
        by an older layout) must still resume to the uninterrupted
        result."""
        from repro.params import LinkConfig, PrefetchConfig

        cfg = make_tiny_system(
            prefetch=PrefetchConfig(enabled=True), link=LinkConfig(compressed=True)
        )
        monkeypatch.setenv(snap.ENV_INTERVAL, str(INTERVAL))
        _, expected = _run(cfg)
        monkeypatch.setenv(snap.ENV_DEADLINE, "0")
        _run(cfg)
        monkeypatch.delenv(snap.ENV_DEADLINE)

        hierarchy_fields = ("_route_i", "_route_d", "_pf2_stats", "_tax_l2", "_l2_miss_hist")
        link_fields = ("_header", "_request_bytes", "_equiv_bytes", "_data_sizes")
        load_latest = snap.SnapshotManager.load_latest
        stripped = []

        def load_stripped(manager):
            loaded = load_latest(manager)
            if loaded is not None:
                h = loaded[1]["hierarchy"]
                for obj, fields in ((h, hierarchy_fields), (h.link, link_fields)):
                    for name in fields:
                        delattr(obj, name)
                        stripped.append(name)
            return loaded

        monkeypatch.setattr(snap.SnapshotManager, "load_latest", load_stripped)
        system, resumed = _run(cfg)
        assert system.resumed_from_phase == 1
        assert len(stripped) == 9
        assert result_fingerprint(resumed) == result_fingerprint(expected)

    def test_property_registered(self):
        from repro.verify.properties import ALL_PROPERTIES

        assert "snapshot_resume_noop" in ALL_PROPERTIES


def _sealed_store(store):
    """(magic, version, noun, reader, writer) of one store built on the
    sealed format; the writer stores one valid file under a directory
    and returns its path."""
    if store == "snapshot":
        def write_snapshot(root):
            path = str(root / "valid.rpsn")
            meta = {"run_key": "k", "phase": 1, "warmup_done": 0,
                    "measure_done": 0, "interval": 10}
            snap.write_snapshot(path, meta, pickle.dumps({"ok": 1}))
            return path

        return (snap.SNAPSHOT_MAGIC, snap.SNAPSHOT_VERSION, "snapshot",
                snap.read_snapshot, write_snapshot)

    def write_entry(root):
        from repro.core.experiment import run_point

        result = run_point("zeus", "base", events=200, warmup=100, scale=16,
                           n_cores=2, use_cache=False)
        cache = diskcache.DiskCache(str(root / "cache"))
        cache.put("ab" + "0" * 62, result)
        return cache.path_for("ab" + "0" * 62)

    return (diskcache.ENTRY_MAGIC, diskcache.CACHE_FORMAT_VERSION,
            "cache entry", diskcache.read_entry, write_entry)


class TestRobustnessFallbacks:
    def _truncate_twice(self, cfg, monkeypatch):
        """Leave two phase snapshots (p1, p2) behind."""
        monkeypatch.setenv(snap.ENV_DEADLINE, "0")
        _run(cfg)
        _run(cfg)
        monkeypatch.delenv(snap.ENV_DEADLINE)

    def test_corrupt_newest_falls_back_to_previous(self, snap_env, monkeypatch):
        cfg = _config()
        monkeypatch.setenv(snap.ENV_INTERVAL, str(INTERVAL))
        _, expected = _run(cfg)
        self._truncate_twice(cfg, monkeypatch)
        paths = sorted(snap_env.glob("*.rpsn"))
        assert len(paths) == 2
        newest = paths[-1]
        data = bytearray(newest.read_bytes())
        data[-1] ^= 0xFF  # break the payload checksum
        newest.write_bytes(bytes(data))

        system, resumed = _run(cfg)
        assert system.resumed_from_phase == 1  # fell back to the p1 snapshot
        assert result_fingerprint(resumed) == result_fingerprint(expected)
        quarantined = list((snap_env / snap.QUARANTINE_DIR).glob("*.rpsn"))
        assert [p.name for p in quarantined] == [newest.name]

    def test_all_corrupt_degrades_to_clean_start(self, snap_env, monkeypatch):
        cfg = _config()
        monkeypatch.setenv(snap.ENV_INTERVAL, str(INTERVAL))
        _, expected = _run(cfg)
        self._truncate_twice(cfg, monkeypatch)
        for path in snap_env.glob("*.rpsn"):
            path.write_bytes(b"RPSN garbage that is not a snapshot")

        system, resumed = _run(cfg)
        assert system.resumed_from_phase is None  # clean start
        assert result_fingerprint(resumed) == result_fingerprint(expected)
        assert len(list((snap_env / snap.QUARANTINE_DIR).glob("*"))) == 2

    @pytest.mark.parametrize("store", ["snapshot", "cache"])
    def test_read_snapshot_rejects_garbage(self, tmp_path, store):
        """Both sealed-file readers refuse every malformed file with one
        :class:`CorruptFile`."""
        magic, version, what, read, write_valid = _sealed_store(store)
        head = durable._HEAD.pack
        cases = {
            "empty": b"",
            "short": magic[:2],
            "bad-magic": b"XXXX" + b"\x00" * 64,
            "bad-meta": head(magic, version, 5) + b"not j",
            "bad-version": head(magic, 99, 2) + b"{}",
            # The previous format version is refused by version, before
            # the payload is parsed (old snapshot payloads pickle
            # workload cursors from a module that no longer exists).
            "old-version": head(magic, version - 1, 2) + b"{}",
        }
        for name, blob in cases.items():
            path = tmp_path / name
            path.write_bytes(blob)
            with pytest.raises(durable.CorruptFile) as info:
                read(str(path))
            if name.endswith("version"):
                assert f"unsupported {what} version" in str(info.value)
        flipped = write_valid(tmp_path)
        read(flipped)
        data = bytearray(Path(flipped).read_bytes())
        data[-1] ^= 0xFF
        Path(flipped).write_bytes(bytes(data))
        with pytest.raises(durable.CorruptFile, match="checksum"):
            read(flipped)

    def test_checksum_guards_the_payload(self, tmp_path):
        path = str(tmp_path / "x.rpsn")
        meta = {"run_key": "k", "phase": 1, "warmup_done": 0,
                "measure_done": 0, "interval": 10}
        snap.write_snapshot(path, meta, pickle.dumps({"ok": 1}))
        got_meta, state = snap.read_snapshot(path)
        assert state == {"ok": 1} and got_meta["phase"] == 1
        data = bytearray(Path(path).read_bytes())
        data[-1] ^= 0xFF
        Path(path).write_bytes(bytes(data))
        with pytest.raises(snap.SnapshotError, match="checksum"):
            snap.read_snapshot(path)

    def test_stale_tmp_from_killed_writer_is_swept(self, snap_env):
        """A writer killed mid-write leaves a temp file no candidate scan
        sees; the manager's open-time sweep removes it once it is older
        than the stale threshold, and leaves a fresh one alone."""
        snap_env.mkdir(parents=True)
        stale = snap_env / "0123456789abcdef0123-p00001.rpsn.tmp.4242"
        fresh = snap_env / "0123456789abcdef0123-p00002.rpsn.tmp.4243"
        for path in (stale, fresh):
            path.write_bytes(b"RPSN half a snapshot")
        aged = time.time() - durable.STALE_TMP_S - 60
        os.utime(stale, (aged, aged))
        durable._SWEPT_ROOTS.discard(str(snap_env))
        snap.SnapshotManager("0123456789abcdef0123" + "0" * 44)
        assert not stale.exists()
        assert fresh.exists()

    def test_diskfull_fault_does_not_kill_the_run(self, snap_env, monkeypatch):
        from repro import faults

        cfg = _config()
        monkeypatch.setenv(snap.ENV_INTERVAL, str(INTERVAL))
        _, expected = _run(cfg)
        monkeypatch.setenv("REPRO_FAULTS", "diskfull@*")
        faults.reset()
        try:
            _, result = _run(cfg)
        finally:
            monkeypatch.delenv("REPRO_FAULTS")
            faults.reset()
        assert not result.extra.get("truncated")
        assert result_fingerprint(result) == result_fingerprint(expected)
        assert not list(snap_env.glob("*.rpsn"))  # nothing ever stored

    def test_mem_limit_guard_truncates(self, snap_env, monkeypatch):
        cfg = _config()
        monkeypatch.setenv(snap.ENV_INTERVAL, str(INTERVAL))
        monkeypatch.setenv(snap.ENV_MEM_LIMIT, "1")  # any process exceeds 1 MiB
        _, partial = _run(cfg)
        assert partial.extra.get("truncated") == 1.0
        assert partial.extra["truncated_measure_done"] < EVENTS

    def test_bad_env_values_are_readable_errors(self, snap_env, monkeypatch):
        monkeypatch.setenv(snap.ENV_INTERVAL, "soon")
        with pytest.raises(ValueError, match="REPRO_SNAPSHOT_INTERVAL"):
            settings.get(snap.ENV_INTERVAL)
        monkeypatch.setenv(snap.ENV_INTERVAL, "-3")
        with pytest.raises(ValueError, match=">= 0"):
            settings.get(snap.ENV_INTERVAL)
        monkeypatch.setenv(snap.ENV_DEADLINE, "tomorrow")
        with pytest.raises(ValueError, match="REPRO_DEADLINE"):
            snap.ResourceGuard()

    def _refused_version(self, snap_env, monkeypatch, version):
        """A well-formed snapshot written as format ``version`` is refused
        by version before unpickling, quarantined, and the run starts
        clean."""
        cfg = _config()
        monkeypatch.setenv(snap.ENV_INTERVAL, str(INTERVAL))
        _, expected = _run(cfg)
        with monkeypatch.context() as m:
            m.setattr(snap, "SNAPSHOT_VERSION", version)
            m.setenv(snap.ENV_DEADLINE, "0")
            _run(cfg)
        (old,) = snap_env.glob("*.rpsn")
        with pytest.raises(snap.SnapshotError,
                           match=f"unsupported snapshot version {version}"):
            snap.read_snapshot(str(old))

        system, resumed = _run(cfg)
        assert system.resumed_from_phase is None  # clean start
        assert result_fingerprint(resumed) == result_fingerprint(expected)
        quarantined = list((snap_env / snap.QUARANTINE_DIR).glob("*.rpsn"))
        assert [p.name for p in quarantined] == [old.name]

    def test_old_version_snapshot_is_quarantined(self, snap_env, monkeypatch):
        """An older format's payload may reference classes that no longer
        exist."""
        self._refused_version(snap_env, monkeypatch, 1)

    def test_version_3_snapshot_is_quarantined(self, snap_env, monkeypatch):
        """Version-3 L2 sets pre-built every tag and have no ``fresh``
        count of never-claimed ways."""
        self._refused_version(snap_env, monkeypatch, 3)


class TestObserversRefused:
    """A resumed trace or metrics series would silently lack its
    pre-kill half, so a snapshotted run refuses both observers."""

    @pytest.mark.parametrize("observer", ["trace", "metrics"])
    def test_snapshot_run_refuses_observer(self, snap_env, monkeypatch, observer):
        monkeypatch.setenv(snap.ENV_INTERVAL, str(INTERVAL))
        system = CMPSystem(make_tiny_system(**{observer: True}), "oltp", seed=3)
        with pytest.raises(ValueError, match="snapshots do not support"):
            system.run(EVENTS, warmup_events=WARMUP)
        assert not list(snap_env.glob("*.rpsn"))

    def test_cli_trace_exits_2(self, snap_env, monkeypatch, tmp_path, capsys):
        from repro.cli import main

        monkeypatch.setenv(snap.ENV_INTERVAL, str(INTERVAL))
        out = tmp_path / "t.json"
        rc = main(["trace", "zeus", "-o", str(out), "--events", "300",
                   "--scale", "16", "--cores", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: snapshots do not support")
        assert err.count("\n") == 1
        assert not out.exists()

class TestKillAndResumeCLI:
    """kill -9 mid-phase (the snapkill fault fires os._exit right after
    a snapshot is durable) and resume via ``repro run --resume-snapshot``:
    the final JSON must equal an uninterrupted run's byte for byte."""

    ARGS = ["run", "oltp", "--config", "base", "--events", "600",
            "--warmup", "300", "--scale", "16", "--cores", "2",
            "--seed", "3", "--snapshot-interval", "150", "--json"]

    def _cli(self, tmp_path, *, faults=None, resume=False, deadline=None):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_SNAPSHOT_DIR"] = str(tmp_path / "snaps")
        for var in ("REPRO_FAULTS", "REPRO_DEADLINE",
                    "REPRO_MEM_LIMIT", "REPRO_RESUME_SNAPSHOT",
                    "REPRO_SNAPSHOT_INTERVAL", "REPRO_TELEMETRY"):
            env.pop(var, None)
        if faults:
            env["REPRO_FAULTS"] = faults
        if deadline is not None:
            env["REPRO_DEADLINE"] = deadline
        args = list(self.ARGS) + (["--resume-snapshot"] if resume else [])
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, env=env, cwd=str(tmp_path),
            timeout=120,
        )

    @pytest.fixture(scope="class")
    def uninterrupted_json(self, tmp_path_factory):
        proc = self._cli(tmp_path_factory.mktemp("clean"))
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_kill_resume_bit_identical(self, tmp_path, uninterrupted_json):
        killed = self._cli(tmp_path, faults="snapkill@2")
        assert killed.returncode == 137, (killed.stdout, killed.stderr)
        assert list((tmp_path / "snaps").glob("*.rpsn")), \
            "killed run must leave snapshots"

        resumed = self._cli(tmp_path, resume=True)
        assert resumed.returncode == 0, resumed.stderr
        assert json.loads(resumed.stdout) == json.loads(uninterrupted_json)
        assert not list((tmp_path / "snaps").glob("*.rpsn")), \
            "completed run must discard its snapshots"

    def test_snapcorrupt_quarantines_and_recovers(self, tmp_path,
                                                  uninterrupted_json):
        # snapcorrupt@2 flips a payload byte in the third snapshot write
        # (occurrence-indexed: phase 3); snapkill@3 dies right after that
        # phase-3 save.  On disk: a valid p2 and a corrupt p3.  Resume
        # must quarantine p3, fall back to p2, and still converge on the
        # uninterrupted output.
        killed = self._cli(tmp_path, faults="snapcorrupt@2;snapkill@3")
        assert killed.returncode == 137, (killed.stdout, killed.stderr)
        resumed = self._cli(tmp_path, resume=True)
        assert resumed.returncode == 0, resumed.stderr
        assert json.loads(resumed.stdout) == json.loads(uninterrupted_json)
        quarantine = tmp_path / "snaps" / "_quarantine"
        assert list(quarantine.glob("*.rpsn")), \
            "the corrupt snapshot must be quarantined, not deleted silently"

    def test_deadline_exit_code_3_then_resume(self, tmp_path,
                                              uninterrupted_json):
        proc = self._cli(tmp_path, deadline="0")
        assert proc.returncode == 3, (proc.stdout, proc.stderr)
        assert "resume" in proc.stderr
        data = json.loads(proc.stdout)
        assert data[0]["extra"]["truncated"] == 1.0
        resumed = self._cli(tmp_path, resume=True)
        assert resumed.returncode == 0, resumed.stderr
        assert json.loads(resumed.stdout) == json.loads(uninterrupted_json)
