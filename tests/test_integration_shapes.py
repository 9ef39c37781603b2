"""Small-scale integration tests of the paper's qualitative effects.

These use heavily scaled systems (scale 16: 4 KB L1s, 256 KB L2) and a
few thousand events so they run in seconds, and assert only directions
with comfortable margins.  The benchmarks in ``benchmarks/`` run the
same experiments at proper scale.
"""

from __future__ import annotations

from repro.core.experiment import run_point

EV = dict(events=3000, warmup=6000, scale=16)


def point(w, k, **kw):
    merged = dict(EV)
    merged.update(kw)
    return run_point(w, k, **merged)


class TestCompressionEffects:
    def test_cache_compression_reduces_commercial_misses(self):
        base = point("oltp", "base")
        compr = point("oltp", "cache_compr")
        assert compr.l2.demand_misses < base.l2.demand_misses

    def test_cache_compression_raises_effective_capacity(self):
        base = point("oltp", "base")
        compr = point("oltp", "cache_compr")
        assert compr.compression_ratio > base.compression_ratio * 1.1

    def test_apsi_barely_compresses(self):
        base = point("apsi", "base")
        compr = point("apsi", "cache_compr")
        assert compr.compression_ratio < base.compression_ratio * 1.1

    def test_link_compression_cuts_bytes_for_commercial(self):
        base = point("zeus", "base", infinite_bandwidth=True)
        link = point("zeus", "link_compr", infinite_bandwidth=True)
        assert link.link.bytes_total < 0.8 * base.link.bytes_total

    def test_compressed_hits_pay_decompression(self):
        compr = point("oltp", "cache_compr")
        assert compr.l2.compressed_hits > 0
        base = point("oltp", "base")
        assert base.l2.compressed_hits == 0


class TestPrefetchingEffects:
    def test_prefetching_raises_bandwidth_demand(self):
        base = point("zeus", "base", infinite_bandwidth=True)
        pref = point("zeus", "pref", infinite_bandwidth=True)
        assert pref.bandwidth_gbs > base.bandwidth_gbs

    def test_prefetching_covers_stream_misses(self):
        base = point("mgrid", "base")
        pref = point("mgrid", "pref")
        assert pref.l2.demand_misses < base.l2.demand_misses
        assert pref.prefetch["l2"].issued > 0

    def test_scientific_accuracy_beats_commercial(self):
        sci = point("mgrid", "pref").prefetcher_report("l2").accuracy
        com = point("jbb", "pref").prefetcher_report("l2").accuracy
        assert sci > com

    def test_adaptive_throttles_inaccurate_prefetching(self):
        pref = point("jbb", "adaptive")
        plain = point("jbb", "pref")
        assert pref.prefetch["l2"].issued < plain.prefetch["l2"].issued

    def test_combination_reduces_bandwidth_vs_pref_alone(self):
        pref = point("zeus", "pref", infinite_bandwidth=True)
        both = point("zeus", "pref_compr", infinite_bandwidth=True)
        assert both.bandwidth_gbs < pref.bandwidth_gbs


class TestTimingSanity:
    def test_elapsed_scales_with_events(self):
        short = run_point("zeus", "base", events=1500, warmup=3000, scale=16, use_cache=False)
        long = run_point("zeus", "base", events=4500, warmup=3000, scale=16, use_cache=False)
        assert 1.5 < long.elapsed_cycles / short.elapsed_cycles < 6.0

    def test_all_cores_retire_instructions(self):
        r = point("art", "base")
        assert r.instructions > 0
        assert r.ipc > 0

    def test_bandwidth_finite_vs_infinite_consistent(self):
        finite = point("fma3d", "base")
        infinite = point("fma3d", "base", infinite_bandwidth=True)
        # Demand (infinite pins) is at least what the finite link observed.
        assert infinite.bandwidth_gbs >= 0.8 * finite.bandwidth_gbs
