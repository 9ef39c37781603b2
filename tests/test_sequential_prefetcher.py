"""Tests for the Dahlgren adaptive sequential prefetcher."""

from __future__ import annotations

import pytest

from repro.params import PrefetchConfig
from repro.prefetch.sequential import _EPOCH_EVENTS, SequentialPrefetcher


def make_pf(level="l2", enabled=True, adaptive=False) -> SequentialPrefetcher:
    return SequentialPrefetcher(level, PrefetchConfig(enabled=enabled, adaptive=adaptive, kind="sequential"))


class TestBasics:
    def test_prefetches_next_lines_on_miss(self):
        pf = make_pf("l2")
        assert pf.observe_miss(100) == [101, 102, 103, 104]

    def test_l1_degree_smaller(self):
        pf = make_pf("l1")
        assert pf.observe_miss(100) == [101, 102]

    def test_hits_issue_nothing(self):
        pf = make_pf()
        assert pf.observe_hit(100) == []

    def test_disabled_silent(self):
        pf = make_pf(enabled=False)
        assert pf.observe_miss(100) == []

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            SequentialPrefetcher("l3", PrefetchConfig())


class TestAdaptiveDegree:
    def feed_epoch(self, pf, useful_fraction):
        useful = int(_EPOCH_EVENTS * useful_fraction)
        for _ in range(useful):
            pf.adaptive.on_useful()
        for _ in range(_EPOCH_EVENTS - useful):
            pf.adaptive.on_useless()
        pf.observe_hit(0)  # trigger the adjustment check

    def test_starts_conservative(self):
        pf = make_pf(adaptive=True)
        assert pf.degree == 1

    def test_high_usefulness_raises_degree(self):
        pf = make_pf(adaptive=True)
        self.feed_epoch(pf, 0.9)
        assert pf.degree == 2

    def test_low_usefulness_lowers_degree(self):
        pf = make_pf(adaptive=True)
        pf.degree = 2
        self.feed_epoch(pf, 0.1)
        assert pf.degree == 1

    def test_degree_can_reach_zero(self):
        pf = make_pf(adaptive=True)
        self.feed_epoch(pf, 0.0)
        self.feed_epoch(pf, 0.0)
        assert pf.degree == 0
        assert pf.observe_miss(100) == []

    def test_degree_capped_at_max(self):
        pf = make_pf(adaptive=True)
        for _ in range(10):
            self.feed_epoch(pf, 1.0)
        assert pf.degree == pf.max_degree

    def test_non_adaptive_never_adjusts(self):
        pf = make_pf(adaptive=False)
        start = pf.degree
        for _ in range(3):
            self.feed_epoch(pf, 0.0)
        assert pf.degree == start


class TestHierarchyIntegration:
    def test_sequential_kind_selected(self):
        from repro.core.system import CMPSystem
        from repro.params import CacheConfig, L2Config, SystemConfig

        cfg = SystemConfig(
            n_cores=2,
            l1i=CacheConfig(4 * 1024, 2),
            l1d=CacheConfig(4 * 1024, 2),
            l2=L2Config(64 * 1024, n_banks=2),
            prefetch=PrefetchConfig(enabled=True, kind="sequential"),
        )
        system = CMPSystem(cfg, "mgrid", seed=0)
        result = system.run(800, warmup_events=200)
        assert isinstance(system.hierarchy.pf_l2[0], SequentialPrefetcher)
        assert result.prefetch["l2"].issued > 0

    def test_unknown_kind_rejected(self):
        from repro.core.hierarchy import MemoryHierarchy
        from repro.params import CacheConfig, L2Config, SystemConfig

        cfg = SystemConfig(
            n_cores=1,
            l1i=CacheConfig(1024, 2),
            l1d=CacheConfig(1024, 2),
            l2=L2Config(16 * 1024, n_banks=2),
            prefetch=PrefetchConfig(enabled=True, kind="markov"),
        )

        class V:
            def segments_for(self, a):
                return 8

        with pytest.raises(ValueError):
            MemoryHierarchy(cfg, V())
