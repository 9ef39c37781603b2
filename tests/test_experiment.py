"""Tests for the experiment harness (config matrix, env knobs, caching)."""

from __future__ import annotations

import pytest

from repro import settings
from repro.core.experiment import (
    CONFIG_FEATURES,
    clear_cache,
    make_config,
    run_matrix,
    run_point,
    run_seeds,
)


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
        monkeypatch.delenv("REPRO_MEMO_CAP", raising=False)
        assert settings.get("REPRO_MEMO_CAP") == 512
        assert settings.get("REPRO_MEMO_CAP", 42) == 42

    def test_env_int_set(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMO_CAP", "7")
        assert settings.get("REPRO_MEMO_CAP") == 7
        assert settings.get("REPRO_MEMO_CAP", 42) == 7

    def test_defaults_positive(self):
        assert settings.get("REPRO_EVENTS") > 0
        assert settings.get("REPRO_SEEDS") >= 1
        assert settings.get("REPRO_SCALE") >= 1


class TestRunHelpers:
    def test_run_point_caching(self):
        clear_cache()
        a = run_point("zeus", "base", events=200, warmup=50, scale=16, n_cores=2)
        b = run_point("zeus", "base", events=200, warmup=50, scale=16, n_cores=2)
        assert a is b  # memoised
        c = run_point("zeus", "base", events=200, warmup=50, scale=16, n_cores=2, use_cache=False)
        assert c is not a

    def test_run_seeds_count(self):
        clear_cache()
        results = run_seeds("zeus", "base", seeds=2, events=150, warmup=50, scale=16, n_cores=2)
        assert len(results) == 2
        assert results[0].seed == 0 and results[1].seed == 1

    def test_run_matrix_keys(self):
        clear_cache()
        out = run_matrix(["zeus"], ["base", "pref"], events=150, warmup=50, scale=16, n_cores=2)
        assert set(out) == {("zeus", "base"), ("zeus", "pref")}
        clear_cache()
