"""Tests for the cycle-breakdown bottleneck analysis."""

from __future__ import annotations

from repro.core.bottleneck import CycleBreakdown, analyze
from repro.core.system import CMPSystem
from repro.params import CacheConfig, L2Config, LinkConfig, SystemConfig


def run(workload="fma3d", bandwidth=20.0, events=600):
    cfg = SystemConfig(
        n_cores=2,
        l1i=CacheConfig(2 * 1024, 2),
        l1d=CacheConfig(2 * 1024, 2),
        l2=L2Config(32 * 1024, n_banks=2),
        link=LinkConfig(bandwidth_gbs=bandwidth),
    )
    return CMPSystem(cfg, workload, seed=0).run(events, warmup_events=150)


class TestBreakdown:
    def test_fractions_partition_total(self):
        b = analyze(run())
        assert 0.0 <= b.compute_fraction <= 1.0
        assert 0.0 <= b.memory_stall_fraction <= 1.0
        assert abs(b.compute_fraction + b.memory_stall_fraction - 1.0) < 1e-6

    def test_streaming_workload_is_memory_bound(self):
        b = analyze(run("fma3d"))
        assert b.memory_stall_fraction > 0.3

    def test_tight_link_flags_pin_bottleneck(self):
        b = analyze(run("fma3d", bandwidth=0.5))
        assert b.dominant_bottleneck() == "pin-bandwidth"
        assert b.link_occupancy > 0.75

    def test_compute_bound_when_memory_quiet(self):
        b = CycleBreakdown(
            workload="x", config_name="c", total_cycles=1000.0,
            compute_cycles=900.0, memory_stall_cycles=100.0,
            link_queue_cycles=0.0, link_occupancy=0.1, dram_requests=5,
        )
        assert b.dominant_bottleneck() == "compute"

    def test_memory_latency_bottleneck(self):
        b = CycleBreakdown(
            workload="x", config_name="c", total_cycles=1000.0,
            compute_cycles=300.0, memory_stall_cycles=700.0,
            link_queue_cycles=0.0, link_occupancy=0.2, dram_requests=50,
        )
        assert b.dominant_bottleneck() == "memory-latency"

    def test_report_and_dict(self):
        b = analyze(run())
        assert "bottleneck" in b.report()
        d = b.as_dict()
        assert "memory_stall_fraction" in d and "link_occupancy" in d

    def test_zero_cycles_degenerate(self):
        b = CycleBreakdown(
            workload="x", config_name="c", total_cycles=0.0,
            compute_cycles=0.0, memory_stall_cycles=0.0,
            link_queue_cycles=0.0, link_occupancy=0.0, dram_requests=0,
        )
        assert b.memory_stall_fraction == 0.0
        assert b.compute_fraction == 0.0
