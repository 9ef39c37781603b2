"""Cross-feature interplay tests: combinations the individual suites
don't exercise together."""

from __future__ import annotations

from repro.core.system import CMPSystem
from repro.params import (
    CacheConfig,
    L2Config,
    LinkConfig,
    PrefetchConfig,
    SystemConfig,
)


def cfg(l2_extra=None, link_extra=None, pf=None, **kw) -> SystemConfig:
    return SystemConfig(
        n_cores=2,
        l1i=CacheConfig(2 * 1024, 2),
        l1d=CacheConfig(2 * 1024, 2),
        l2=L2Config(32 * 1024, n_banks=2, **(l2_extra or {})),
        link=LinkConfig(bandwidth_gbs=20.0, **(link_extra or {})),
        prefetch=pf or PrefetchConfig(),
        **kw,
    )


def run(config, workload="oltp", seed=0, events=1200, warmup=600):
    return CMPSystem(config, workload, seed=seed).run(events, warmup_events=warmup)


class TestCompressionCombos:
    def test_adaptive_compression_with_link_compression(self):
        c = cfg(
            l2_extra=dict(compressed=True, adaptive_compression=True),
            link_extra=dict(compressed=True),
        )
        r = run(c)
        assert r.compression_ratio > 0
        assert r.link.uncompressed_equiv_bytes >= r.link.bytes_data

    def test_selective_scheme_end_to_end(self):
        base = run(cfg())
        sel = run(cfg(l2_extra=dict(compressed=True, scheme="selective")))
        # Selective FPC on oltp's integer-rich data still shrinks misses.
        assert sel.l2.demand_misses <= base.l2.demand_misses

    def test_fvc_scheme_end_to_end(self):
        r = run(cfg(l2_extra=dict(compressed=True, scheme="fvc")))
        assert r.elapsed_cycles > 0
        assert 1 <= r.compression.avg_segments_per_line <= 8

    def test_link_compression_without_cache_compression(self):
        """Figure 2's design: the two compressions are independent."""
        plain = run(cfg())
        link_only = run(cfg(link_extra=dict(compressed=True)))
        assert link_only.link.bytes_total < plain.link.bytes_total
        assert link_only.l2.demand_misses == plain.l2.demand_misses


class TestPrefetcherCombos:
    def test_shared_l2_with_adaptive(self):
        pf = PrefetchConfig(enabled=True, adaptive=True, shared_l2=True)
        system = CMPSystem(cfg(pf=pf), "mgrid", seed=0)
        r = system.run(1200, warmup_events=400)
        # All cores reference the same prefetcher object.
        assert system.hierarchy.pf_l2[0] is system.hierarchy.pf_l2[1]
        assert r.prefetch["l2"].issued > 0

    def test_sequential_with_stream_buffers(self):
        pf = PrefetchConfig(enabled=True, kind="sequential", placement="stream_buffer")
        system = CMPSystem(cfg(pf=pf), "mgrid", seed=0)
        r = system.run(1200, warmup_events=400)
        assert sum(p.insertions for p in system.hierarchy.stream_buffers) > 0
        assert r.prefetch["l2"].useless == 0  # still pollution-free

    def test_adaptive_with_compression_uses_fewer_victim_tags(self):
        """Section 5.4's mechanism: compressible data occupies tags that
        would otherwise hold victims."""
        pf = PrefetchConfig(enabled=True, adaptive=True)
        compr = CMPSystem(
            cfg(pf=pf, l2_extra=dict(compressed=True)), "oltp", seed=0
        )
        compr.run(1200, warmup_events=600)
        l2 = compr.hierarchy.l2
        free_tags = sum(l2.free_victim_tags(s * 1) for s in range(0, l2.n_sets, 7))
        plain = CMPSystem(cfg(pf=pf), "oltp", seed=0)
        plain.run(1200, warmup_events=600)
        l2p = plain.hierarchy.l2
        free_tags_plain = sum(l2p.free_victim_tags(s * 1) for s in range(0, l2p.n_sets, 7))
        assert free_tags <= free_tags_plain

    def test_prefetch_with_everything(self):
        pf = PrefetchConfig(enabled=True, adaptive=True)
        c = cfg(
            pf=pf,
            l2_extra=dict(compressed=True, adaptive_compression=True),
            link_extra=dict(compressed=True),
            onchip_bandwidth_gbs=320.0,
        )
        r = run(c, "zeus")
        assert r.elapsed_cycles > 0
        from repro.obs.audit import audit_hierarchy

        # The kitchen sink still satisfies every structural invariant.
        system = CMPSystem(c, "zeus", seed=1)
        system.run(800, warmup_events=200)
        assert audit_hierarchy(system.hierarchy) == []


class TestSeedVariability:
    def test_different_seeds_similar_magnitude(self):
        """The paper's CI methodology presumes seeds vary results modestly,
        not wildly: runtimes across seeds stay within 2x."""
        runtimes = [run(cfg(), seed=s).runtime for s in range(3)]
        assert max(runtimes) < 2.0 * min(runtimes)

    def test_ci_narrows_with_agreement(self):
        from repro.stats.confidence import mean_ci

        tight = mean_ci([100.0, 101.0, 99.0])
        loose = mean_ci([100.0, 150.0, 50.0])
        assert tight.half_width < loose.half_width


class TestReplayEquivalence:
    def test_same_trace_same_instructions_across_configs(self):
        from repro.trace.io import record_trace

        base_cfg = cfg()
        pack = record_trace(
            "zeus", n_cores=2, events_per_core=900, seed=0,
            l2_lines=base_cfg.l2.n_lines, l1i_lines=base_cfg.l1i.n_lines,
        )
        runs = []
        for features in ({}, dict(cache_compression=True), dict(prefetching=True)):
            c = base_cfg.with_features(**features) if features else base_cfg
            runs.append(CMPSystem(c, trace=pack).run(600, warmup_events=300))
        # Identical work: instruction counts match exactly.
        assert len({r.instructions for r in runs}) == 1
