"""Tests for the observability subsystem (repro.obs): invariant
auditing and run telemetry."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import settings
from repro.cache.line import MSIState
from repro.core.system import CMPSystem
from repro.obs import telemetry
from repro.obs.audit import AuditViolation, Auditor, audit_hierarchy
from repro.params import SystemConfig
from repro.report.export import result_fingerprint

from tests.conftest import make_tiny_system
from tests.test_hierarchy import make_hierarchy

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestEnableResolution:
    def test_config_switch(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        assert not settings.override("REPRO_AUDIT", SystemConfig().audit)
        assert settings.override("REPRO_AUDIT", SystemConfig(audit=True).audit)

    def test_env_overrides_config_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        assert settings.override("REPRO_AUDIT", SystemConfig(audit=False).audit)

    def test_env_zero_force_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "0")
        assert not settings.override("REPRO_AUDIT", SystemConfig(audit=True).audit)

    def test_interval_env_override(self, monkeypatch):
        # The cadence is the config field alone: no environment knob
        # overrides it.
        monkeypatch.setenv("REPRO_AUDIT", "1")
        monkeypatch.setenv("REPRO_AUDIT_INTERVAL", "128")
        cfg = replace(make_tiny_system(), audit_interval=555)
        assert CMPSystem(cfg, "zeus", seed=0).auditor.interval == 555

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            SystemConfig(audit_interval=0)
        with pytest.raises(ValueError):
            Auditor(object(), interval=0)


class TestHealthyHierarchyPasses:
    def test_fresh_hierarchy(self):
        assert audit_hierarchy(make_hierarchy()) == []

    def test_after_traffic_all_feature_combos(self):
        for compressed in (False, True):
            for prefetch in (False, True):
                h = make_hierarchy(
                    compressed=compressed, prefetch=prefetch, adaptive=prefetch
                )
                now = 0.0
                for i in range(400):
                    core = i % 2
                    kind = 0 if i % 7 == 0 else (2 if i % 5 == 0 else 1)
                    # Instruction and data addresses are disjoint, as in
                    # the workload generators: the directory keeps one
                    # sharer bit per core, so a line must never be
                    # resident in both of a core's L1s at once.
                    addr = (i * 13) % 512 + (4096 if kind == 0 else 0)
                    lat, _ = h.access(core, kind, addr, now)
                    now += 10.0 + lat
                assert audit_hierarchy(h) == []

    def test_expected_access_count_checked(self):
        h = make_hierarchy()
        h.access(0, 1, 0x100, 0.0)
        assert audit_hierarchy(h, expected_l1_accesses=1) == []
        with pytest.raises(AuditViolation) as exc:
            audit_hierarchy(h, expected_l1_accesses=5)
        assert any(
            v.invariant == "stats.l1_access_conservation" for v in exc.value.violations
        )


class TestTamperDetection:
    """Deliberately corrupt state and check the right invariant fires —
    this is what proves the auditor is actually looking."""

    def _violations(self, h):
        return {v.invariant for v in audit_hierarchy(h, raise_on_violation=False)}

    def test_l1_line_without_l2_backing(self):
        h = make_hierarchy()
        h.l1d[0].insert(0x300, MSIState.SHARED, False, False, 0.0)
        assert "inclusion.l1_line_not_in_l2" in self._violations(h)

    def test_cleared_sharer_bit(self):
        h = make_hierarchy()
        h.access(0, 1, 0x100, 0.0)
        h.l2.probe(0x100).sharers = 0
        assert "directory.missing_sharer_bit" in self._violations(h)
        assert "directory.stale_sharer_bit" not in self._violations(h)

    def test_stale_sharer_bit(self):
        h = make_hierarchy()
        h.access(0, 1, 0x100, 0.0)
        h.l2.probe(0x100).sharers |= 1 << 1  # core 1 never touched it
        assert "directory.stale_sharer_bit" in self._violations(h)

    def test_modified_l1_with_wrong_owner(self):
        h = make_hierarchy()
        h.access(0, 2, 0x100, 0.0)  # STORE
        h.l2.probe(0x100).owner = 1
        found = self._violations(h)
        assert "directory.owner_mismatch" in found

    def test_segment_overflow(self):
        h = make_hierarchy(compressed=True)
        h.access(0, 1, 0x100, 0.0)
        cset = h.l2._sets[h.l2.set_index(0x100)]
        cset.used_segments = h.l2.total_segments + 1
        found = {p[0] for p in h.l2.check_invariants()}
        assert "l2.segment_budget" in found
        assert "l2.used_segments" in found

    def test_lru_map_disagreement(self):
        h = make_hierarchy()
        h.access(0, 1, 0x100, 0.0)
        l1 = h.l1d[0]
        entry = l1._map.pop(0x100)  # stack still references it
        found = {p[0] for p in l1.check_invariants()}
        assert "set_assoc.map_stack_disagree" in found
        l1._map[0x100] = entry  # restore

    def test_counter_tamper(self):
        h = make_hierarchy()
        h.access(0, 1, 0x100, 0.0)
        h.l2_stats.demand_misses += 3
        assert "stats.l2_access_conservation" in self._violations(h)
        h.l2_stats.demand_misses -= 5
        assert "stats.negative_counter" in self._violations(h)

    def test_violation_carries_context(self):
        h = make_hierarchy()
        h.l1d[0].insert(0x300, MSIState.SHARED, False, False, 0.0)
        with pytest.raises(AuditViolation) as exc:
            audit_hierarchy(h)
        v = exc.value.violations[0]
        assert v.context["addr"] == 0x300
        assert "0x" not in str(v.invariant)
        assert "inclusion" in str(exc.value)


class TestSystemIntegration:
    def test_auditor_runs_during_simulation(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        cfg = make_tiny_system()
        from dataclasses import replace

        cfg = replace(cfg, audit=True, audit_interval=64)
        system = CMPSystem(cfg, "zeus", seed=0)
        system.run(300, warmup_events=100)
        assert system.auditor is not None
        assert system.auditor.checks_run >= 300 * cfg.n_cores // 64
        assert system.auditor.violations_found == 0

    def test_audit_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        assert CMPSystem(make_tiny_system(), "zeus", seed=0).auditor is None

    def test_env_enables_audit(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        system = CMPSystem(make_tiny_system(), "zeus", seed=0)
        assert system.auditor is not None and system.auditor.interval == 4096

    def test_simulate_facade_audit_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        from dataclasses import replace

        from repro.core.experiment import run_point

        result = run_point(
            "zeus", replace(make_tiny_system(), audit=True), events=200,
            warmup=100, use_cache=False,
        )
        assert result.events == 400  # ran to completion, zero violations

    def test_audit_does_not_change_results(self, monkeypatch):
        """The acceptance criterion: auditing is observation only."""
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        cfg = make_tiny_system()
        plain = CMPSystem(cfg, "oltp", seed=3).run(400, warmup_events=200)
        monkeypatch.setenv("REPRO_AUDIT", "1")
        audited = CMPSystem(replace(cfg, audit_interval=16), "oltp", seed=3).run(
            400, warmup_events=200
        )
        assert result_fingerprint(plain) == result_fingerprint(audited)


class TestTelemetry:
    def test_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert not telemetry.enabled()
        telemetry.emit("simulate", events=1)  # must be a silent no-op

    def test_emit_and_read_roundtrip(self, tmp_path, monkeypatch):
        sink = tmp_path / "t.jsonl"
        monkeypatch.setenv("REPRO_TELEMETRY", str(sink))
        telemetry.emit("simulate", events=100, wall_s=0.5)
        telemetry.emit("diskcache", outcome="hit", key="ab")
        records = telemetry.read_records(str(sink))
        assert [r["kind"] for r in records] == ["simulate", "diskcache"]
        assert all("ts" in r and "pid" in r for r in records)

    def test_corrupt_lines_skipped(self, tmp_path):
        sink = tmp_path / "t.jsonl"
        sink.write_text('{"kind": "simulate"}\n{truncated\n\n{"kind": "sweep"}\n')
        assert [r["kind"] for r in telemetry.read_records(str(sink))] == [
            "simulate", "sweep",
        ]

    def test_unwritable_sink_is_swallowed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path / "no" / "such" / "dir" / "t.jsonl"))
        telemetry.emit("simulate", events=1)  # must not raise

    def test_sink_closed_at_exit(self, tmp_path):
        """A process that emitted telemetry closes its cached sink on the
        way out: no ``ResourceWarning: unclosed file`` at shutdown."""
        sink = tmp_path / "t.jsonl"
        env = dict(os.environ, REPRO_TELEMETRY=str(sink))
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-c",
             "from repro.obs import telemetry; telemetry.emit('simulate', events=1)"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert [r["kind"] for r in telemetry.read_records(str(sink))] == ["simulate"]

    def test_simulation_emits_record(self, tmp_path, monkeypatch):
        sink = tmp_path / "runs.jsonl"
        monkeypatch.setenv("REPRO_TELEMETRY", str(sink))
        CMPSystem(make_tiny_system(), "zeus", seed=0).run(200, warmup_events=100)
        records = telemetry.read_records(str(sink))
        sims = [r for r in records if r["kind"] == "simulate"]
        assert len(sims) == 1
        assert sims[0]["workload"] == "zeus"
        assert sims[0]["events"] == 200 * 2
        assert sims[0]["wall_s"] > 0 and sims[0]["events_per_sec"] > 0

    def test_simulate_record_carries_env_settings(self, tmp_path, monkeypatch):
        sink = tmp_path / "runs.jsonl"
        monkeypatch.setenv("REPRO_TELEMETRY", str(sink))
        monkeypatch.setenv("REPRO_EVENTS", "300")
        CMPSystem(make_tiny_system(), "zeus", seed=0).run(200, warmup_events=100)
        (sim,) = [r for r in telemetry.read_records(str(sink))
                  if r["kind"] == "simulate"]
        assert sim["settings"]["REPRO_EVENTS"] == 300
        assert sim["settings"]["REPRO_TELEMETRY"] == str(sink)
        assert "REPRO_SEEDS" not in sim["settings"]  # unset knobs are left out

    def test_run_point_emits_source(self, tmp_path, monkeypatch):
        sink = tmp_path / "points.jsonl"
        monkeypatch.setenv("REPRO_TELEMETRY", str(sink))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        from repro.core.experiment import run_point

        kwargs = dict(events=200, warmup=100, n_cores=2, scale=16, seed=0)
        run_point("zeus", "base", **kwargs)   # simulated, stored
        run_point("zeus", "base", **kwargs)   # disk hit
        sources = [r["source"] for r in telemetry.read_records(str(sink))
                   if r["kind"] == "point"]
        assert sources == ["sim", "disk"]
        outcomes = [r["outcome"] for r in telemetry.read_records(str(sink))
                    if r["kind"] == "diskcache"]
        assert outcomes == ["miss", "store", "hit"]

    def test_summarize(self):
        records = [
            {"kind": "simulate", "pid": 1, "wall_s": 2.0, "events": 1000, "audit_checks": 4},
            {"kind": "point", "pid": 1, "source": "sim"},
            {"kind": "point", "pid": 2, "source": "disk"},
            {"kind": "diskcache", "pid": 2, "outcome": "hit"},
        ]
        summary = telemetry.summarize(records)
        assert summary["records"] == 4
        assert summary["workers"] == 2
        assert summary["events_per_sec"] == 500.0
        assert summary["audit_checks"] == 4
        assert summary["point_sources"] == {"sim": 1, "disk": 1}
        assert summary["diskcache"] == {"hit": 1}


class TestCLI:
    def test_audit_command_smoke(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        from repro.cli import main

        code = main([
            "audit", "zeus", "--config", "pref_compr", "--events", "300",
            "--warmup", "300", "--scale", "16", "--cores", "2", "--interval", "64",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "audit OK" in out and "0 violations" in out
        assert "fingerprint" in out

    def test_telemetry_command_smoke(self, capsys, tmp_path, monkeypatch):
        sink = tmp_path / "t.jsonl"
        monkeypatch.setenv("REPRO_TELEMETRY", str(sink))
        telemetry.emit("simulate", events=500, wall_s=0.25, audit_checks=2,
                       workload="zeus", config="base")
        monkeypatch.delenv("REPRO_TELEMETRY")
        from repro.cli import main

        code = main(["telemetry", str(sink)])
        out = capsys.readouterr().out
        assert code == 0
        assert "records:" in out and "events/sec" in out

        code = main(["telemetry", str(sink), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0 and data["simulate_events"] == 500

    def test_telemetry_missing_file(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["telemetry", str(tmp_path / "absent.jsonl")]) == 1
