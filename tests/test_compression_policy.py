"""Tests for the ISCA'04 adaptive compression policy."""

from __future__ import annotations

import pytest

from repro.compression.policy import AdaptiveCompressionPolicy


def make_policy(**kw) -> AdaptiveCompressionPolicy:
    defaults = dict(miss_penalty=400.0, decompression_penalty=5.0, enabled=True)
    defaults.update(kw)
    return AdaptiveCompressionPolicy(**defaults)


class TestCounterDynamics:
    def test_starts_compressing(self):
        assert make_policy().should_compress()

    def test_deep_hits_credit_the_counter(self):
        p = make_policy()
        p.on_hit(stack_depth=5, uncompressed_assoc=4, compressed=True)
        assert p.counter == 400.0
        assert p.avoided_miss_events == 1

    def test_penalized_shallow_hits_debit(self):
        p = make_policy()
        p.on_hit(stack_depth=0, uncompressed_assoc=4, compressed=True)
        assert p.counter == -5.0
        assert p.penalized_hit_events == 1

    def test_shallow_uncompressed_hits_are_neutral(self):
        p = make_policy()
        p.on_hit(stack_depth=2, uncompressed_assoc=4, compressed=False)
        assert p.counter == 0.0

    def test_stops_compressing_when_costs_dominate(self):
        p = make_policy()
        for _ in range(3):
            p.on_hit(0, 4, compressed=True)
        assert not p.should_compress()

    def test_one_avoided_miss_outweighs_many_penalties(self):
        """The ISCA'04 asymmetry: a 400-cycle miss buys 80 decompressions."""
        p = make_policy()
        p.on_hit(6, 4, compressed=True)
        for _ in range(79):
            p.on_hit(0, 4, compressed=True)
        assert p.should_compress()

    def test_saturation(self):
        p = make_policy(saturation=100.0)
        for _ in range(10):
            p.on_hit(7, 4, compressed=True)
        assert p.counter == 100.0

    def test_disabled_always_compresses(self):
        p = make_policy(enabled=False)
        for _ in range(100):
            p.on_hit(0, 4, compressed=True)
        assert p.should_compress()

    def test_validation(self):
        with pytest.raises(ValueError):
            make_policy(miss_penalty=-1.0)
        with pytest.raises(ValueError):
            make_policy(saturation=-1.0)


class TestHierarchyIntegration:
    def _system(self, adaptive_compression: bool):
        from repro.core.system import CMPSystem
        from repro.params import CacheConfig, L2Config, SystemConfig

        cfg = SystemConfig(
            n_cores=2,
            l1i=CacheConfig(size_bytes=4 * 1024, assoc=2),
            l1d=CacheConfig(size_bytes=4 * 1024, assoc=2),
            l2=L2Config(
                size_bytes=64 * 1024,
                n_banks=2,
                compressed=True,
                adaptive_compression=adaptive_compression,
            ),
        )
        return CMPSystem(cfg, "oltp", seed=0)

    def test_policy_tracks_events_when_enabled(self):
        system = self._system(adaptive_compression=True)
        system.run(1500, warmup_events=1500)
        policy = system.hierarchy.compression_policy
        assert policy.enabled
        assert policy.avoided_miss_events + policy.penalized_hit_events > 0

    def test_paper_observation_policy_keeps_compressing(self):
        """Section 2: for these workloads the policy always adapted to
        compress — deep-stack hits outweigh decompression penalties."""
        system = self._system(adaptive_compression=True)
        system.run(2500, warmup_events=2500)
        assert system.hierarchy.compression_policy.should_compress()

    def test_disabled_by_default(self):
        system = self._system(adaptive_compression=False)
        assert not system.hierarchy.compression_policy.enabled


class TestStackDepth:
    def test_stack_depth_reports_lru_position(self):
        from repro.cache.compressed import CompressedSetCache
        from repro.params import L2Config

        l2 = CompressedSetCache(L2Config(size_bytes=16 * 1024, n_banks=2, compressed=True))
        a, b = 3, 3 + l2.n_sets
        l2.insert(a, segments=2)
        l2.insert(b, segments=2)
        assert l2.stack_depth(b) == 0  # MRU
        assert l2.stack_depth(a) == 1
        l2.touch(a)
        assert l2.stack_depth(a) == 0
        with pytest.raises(KeyError):
            l2.stack_depth(999)
