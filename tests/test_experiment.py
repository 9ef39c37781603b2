"""Tests for the experiment harness (config matrix, env knobs, caching)."""

from __future__ import annotations

import pytest

from repro import settings
from repro.core.diskcache import DiskCache
from repro.core.experiment import (
    CONFIG_FEATURES,
    make_config,
    run_matrix,
    run_point,
    run_seeds,
)
from repro.obs.telemetry import read_records
from repro.report.export import result_fingerprint


class TestConfigMatrix:
    def test_all_paper_combos_present(self):
        for key in ("base", "pref", "adaptive", "cache_compr", "link_compr",
                    "compr", "pref_compr", "adaptive_compr"):
            assert key in CONFIG_FEATURES

    def test_base_has_nothing(self):
        cfg = make_config("base", scale=4)
        assert not cfg.cache_compression and not cfg.link_compression
        assert not cfg.prefetch.enabled

    def test_pref_compr_has_everything_but_adaptive(self):
        cfg = make_config("pref_compr", scale=4)
        assert cfg.cache_compression and cfg.link_compression
        assert cfg.prefetch.enabled and not cfg.prefetch.adaptive

    def test_adaptive_compr(self):
        cfg = make_config("adaptive_compr", scale=4)
        assert cfg.prefetch.adaptive

    def test_infinite_bandwidth_option(self):
        cfg = make_config("base", scale=4, infinite_bandwidth=True)
        assert cfg.link.bandwidth_gbs is None

    def test_custom_bandwidth(self):
        cfg = make_config("base", scale=4, bandwidth_gbs=40.0)
        assert cfg.link.bandwidth_gbs == 40.0

    def test_core_count(self):
        assert make_config("base", n_cores=16, scale=4).n_cores == 16

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            make_config("turbo")

    def test_scale_applied(self):
        assert make_config("base", scale=4).l2.size_bytes == 1024 * 1024
        assert make_config("base", scale=1).l2.size_bytes == 4 * 1024 * 1024


class TestEnvKnobs:
    def test_env_int_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_WARMUP", raising=False)
        assert settings.get("REPRO_WARMUP") is None
        assert settings.get("REPRO_WARMUP", 42) == 42

    def test_env_int_set(self, monkeypatch):
        monkeypatch.setenv("REPRO_WARMUP", "0")
        assert settings.get("REPRO_WARMUP") == 0
        assert settings.get("REPRO_WARMUP", 42) == 0

    def test_defaults_positive(self):
        assert settings.get("REPRO_EVENTS") > 0
        assert settings.get("REPRO_SEEDS") >= 1
        assert settings.get("REPRO_SCALE") >= 1


FAST = dict(events=200, warmup=50, scale=16, n_cores=2)


class TestRunHelpers:
    def test_run_point_caching(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        a = run_point("zeus", "base", **FAST)
        b = run_point("zeus", "base", **FAST)
        assert b is not a  # read back from the disk cache, not shared
        assert result_fingerprint(a) == result_fingerprint(b)
        c = run_point("zeus", "base", **FAST, use_cache=False)
        assert result_fingerprint(c) == result_fingerprint(a)
        assert DiskCache().stats()["entries"] == 1

    def test_repeat_simulates_again_with_the_cache_off(self, tmp_path, monkeypatch):
        # With the cache on, a repeat reads the disk (tests/test_obs.py
        # checks its "sim", "disk" sources); with it off, nothing is reused.
        tele = tmp_path / "points.jsonl"
        monkeypatch.setenv("REPRO_TELEMETRY", str(tele))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_CACHE", "0")
        first = run_point("zeus", "base", **FAST)
        second = run_point("zeus", "base", **FAST)
        assert result_fingerprint(first) == result_fingerprint(second)
        assert [r["source"] for r in read_records(str(tele))
                if r["kind"] == "point"] == ["sim", "sim"]

    def test_run_seeds_count(self):
        results = run_seeds("zeus", "base", seeds=2, events=150, warmup=50, scale=16, n_cores=2)
        assert len(results) == 2
        assert results[0].seed == 0 and results[1].seed == 1

    def test_run_matrix_keys(self):
        out = run_matrix(["zeus"], ["base", "pref"], events=150, warmup=50, scale=16, n_cores=2)
        assert set(out) == {("zeus", "base"), ("zeus", "pref")}
