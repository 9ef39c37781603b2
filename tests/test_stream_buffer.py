"""Tests for stream-buffer prefetch placement."""

from __future__ import annotations

import pytest

from repro.core.system import CMPSystem
from repro.params import CacheConfig, L2Config, PrefetchConfig, SystemConfig
from repro.prefetch.stream_buffer import StreamBufferPool


class TestPool:
    def test_insert_and_take(self):
        p = StreamBufferPool(buffers=2, depth=2)
        p.insert(100, fill_time=50.0, segments=4)
        assert p.contains(100)
        entry = p.take(100)
        assert entry.addr == 100 and entry.fill_time == 50.0 and entry.segments == 4
        assert not p.contains(100)
        assert p.hits == 1

    def test_take_missing_returns_none(self):
        p = StreamBufferPool()
        assert p.take(1) is None
        assert p.hits == 0

    def test_fifo_overflow_drops_oldest(self):
        p = StreamBufferPool(buffers=1, depth=2)
        p.insert(1, 0.0, 8)
        p.insert(2, 0.0, 8)
        p.insert(3, 0.0, 8)  # evicts 1
        assert not p.contains(1)
        assert p.contains(2) and p.contains(3)
        assert p.overflows == 1

    def test_duplicate_insert_ignored(self):
        p = StreamBufferPool()
        p.insert(7, 0.0, 8)
        p.insert(7, 99.0, 8)
        assert p.take(7).fill_time == 0.0
        assert p.insertions == 1

    def test_hit_rate(self):
        p = StreamBufferPool()
        p.insert(1, 0.0, 8)
        p.insert(2, 0.0, 8)
        p.take(1)
        assert p.hit_rate == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamBufferPool(buffers=0)


def small_cfg(pf: PrefetchConfig) -> SystemConfig:
    return SystemConfig(
        n_cores=2,
        l1i=CacheConfig(2 * 1024, 2),
        l1d=CacheConfig(2 * 1024, 2),
        l2=L2Config(32 * 1024, n_banks=2),
        prefetch=pf,
    )


class TestPlacementIntegration:
    def test_buffers_created_only_when_selected(self):
        cache = CMPSystem(small_cfg(PrefetchConfig(enabled=True)), "mgrid", seed=0)
        assert cache.hierarchy.stream_buffers is None
        buf = CMPSystem(
            small_cfg(PrefetchConfig(enabled=True, placement="stream_buffer")), "mgrid", seed=0
        )
        assert buf.hierarchy.stream_buffers is not None

    def test_invalid_placement_rejected(self):
        with pytest.raises(ValueError):
            CMPSystem(small_cfg(PrefetchConfig(enabled=True, placement="l3")), "mgrid")

    def test_buffer_placement_serves_prefetch_hits(self):
        system = CMPSystem(
            small_cfg(PrefetchConfig(enabled=True, placement="stream_buffer")), "mgrid", seed=0
        )
        r = system.run(1500, warmup_events=300)
        pools = system.hierarchy.stream_buffers
        assert sum(p.insertions for p in pools) > 0
        assert r.l2.prefetch_hits > 0  # demand misses served from buffers

    def test_no_cache_pollution_from_prefetches(self):
        """With stream-buffer placement, no L2 line ever carries the
        prefetch bit, so no useless-prefetch evictions can occur."""
        system = CMPSystem(
            small_cfg(PrefetchConfig(enabled=True, placement="stream_buffer")), "jbb", seed=0
        )
        r = system.run(1500, warmup_events=300)
        assert r.prefetch["l2"].useless == 0

    def test_buffer_placement_softens_jbb_slowdown(self):
        base = CMPSystem(small_cfg(PrefetchConfig()), "jbb", seed=0).run(2000, warmup_events=2500)
        cache_pf = CMPSystem(small_cfg(PrefetchConfig(enabled=True)), "jbb", seed=0).run(
            2000, warmup_events=2500
        )
        buf_pf = CMPSystem(
            small_cfg(PrefetchConfig(enabled=True, placement="stream_buffer")), "jbb", seed=0
        ).run(2000, warmup_events=2500)
        # Pollution-free placement must not be slower than cache placement
        # on the pollution-limited workload.
        assert buf_pf.runtime <= cache_pf.runtime * 1.03
        del base
