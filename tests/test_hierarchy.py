"""Integration tests for the full memory hierarchy access path."""

from __future__ import annotations

from repro.cache.line import MSIState
from repro.core.hierarchy import MemoryHierarchy
from repro.params import CacheConfig, L2Config, LinkConfig, PrefetchConfig, SystemConfig
from repro.workloads.base import IFETCH, LOAD, STORE


class FixedValues:
    """Value model stub: every line compresses to the same segment count."""

    def __init__(self, segments=4):
        self.segments = segments

    def segments_for(self, addr):
        return self.segments


def make_hierarchy(
    *,
    n_cores=2,
    compressed=False,
    link_compressed=False,
    prefetch=False,
    adaptive=False,
    segments=4,
    bandwidth=20.0,
):
    cfg = SystemConfig(
        n_cores=n_cores,
        l1i=CacheConfig(size_bytes=1024, assoc=2),
        l1d=CacheConfig(size_bytes=1024, assoc=2),
        l2=L2Config(size_bytes=16 * 1024, n_banks=2, compressed=compressed),
        link=LinkConfig(bandwidth_gbs=bandwidth, compressed=link_compressed),
        prefetch=PrefetchConfig(enabled=prefetch, adaptive=adaptive),
    )
    return MemoryHierarchy(cfg, FixedValues(segments))


class TestBasicPath:
    def test_cold_miss_pays_memory_latency(self):
        h = make_hierarchy()
        latency, l1_hit = h.access(0, LOAD, 0x100, now=0.0)
        assert not l1_hit
        assert latency >= 400
        assert h.l1d_stats.demand_misses == 1
        assert h.l2_stats.demand_misses == 1

    def test_second_access_hits_l1(self):
        h = make_hierarchy()
        lat1, _ = h.access(0, LOAD, 0x100, now=0.0)
        lat2, l1_hit = h.access(0, LOAD, 0x100, now=lat1 + 1)
        assert l1_hit and lat2 == 0.0
        assert h.l1d_stats.demand_hits == 1

    def test_l2_hit_from_other_core(self):
        h = make_hierarchy()
        lat1, _ = h.access(0, LOAD, 0x100, now=0.0)
        lat2, _ = h.access(1, LOAD, 0x100, now=lat1 + 1)
        assert lat2 < 100  # L2 hit, no memory trip
        assert h.l2_stats.demand_hits == 1

    def test_ifetch_uses_l1i(self):
        h = make_hierarchy()
        h.access(0, IFETCH, 0x500, now=0.0)
        assert h.l1i_stats.demand_misses == 1
        assert h.l1d_stats.demand_misses == 0

    def test_partial_hit_waits_for_fill(self):
        h = make_hierarchy()
        lat1, _ = h.access(0, LOAD, 0x100, now=0.0)
        # Another core demands the same line while the fill is in flight.
        lat2, l1_hit = h.access(1, LOAD, 0x100, now=10.0)
        assert lat2 >= lat1 - 10.0  # waits out the remaining fill time


class TestInclusionAndCoherence:
    def test_l2_directory_tracks_sharers(self):
        h = make_hierarchy()
        h.access(0, LOAD, 0x100, 0.0)
        h.access(1, LOAD, 0x100, 1000.0)
        entry = h.l2.probe(0x100)
        assert sorted(h.directory.sharers(entry)) == [0, 1]

    def test_store_invalidates_other_sharers(self):
        h = make_hierarchy()
        h.access(0, LOAD, 0x100, 0.0)
        h.access(1, LOAD, 0x100, 1000.0)
        h.access(0, STORE, 0x100, 2000.0)
        assert h.l1d[1].probe(0x100) is None
        entry = h.l2.probe(0x100)
        assert entry.owner == 0
        assert h.l1d_stats.coherence_invalidations >= 1

    def test_store_hit_upgrades(self):
        h = make_hierarchy()
        h.access(0, LOAD, 0x100, 0.0)
        h.access(0, STORE, 0x100, 1000.0)
        assert h.l1d[0].probe(0x100).state == MSIState.MODIFIED
        assert h.l1d_stats.upgrades == 1

    def test_remote_load_downgrades_owner(self):
        h = make_hierarchy()
        h.access(0, STORE, 0x100, 0.0)
        assert h.l1d[0].probe(0x100).state == MSIState.MODIFIED
        h.access(1, LOAD, 0x100, 1000.0)
        assert h.l1d[0].probe(0x100).state == MSIState.SHARED
        assert h.l2.probe(0x100).dirty

    def test_inclusion_l2_eviction_invalidates_l1(self):
        h = make_hierarchy()
        # Fill one L2 set beyond capacity; tiny L2 has 64 sets, assoc 4.
        n_sets = h.l2.n_sets
        base = 0x40
        victims = [base + k * n_sets for k in range(6)]
        t = 0.0
        for a in victims:
            t += 1000.0
            h.access(0, LOAD, a, t)
        # The first lines were evicted from L2; inclusion says L1 lost them too.
        evicted = [a for a in victims if h.l2.probe(a) is None]
        assert evicted
        for a in evicted:
            assert h.l1d[0].probe(a) is None

    def test_inclusion_invariant_holds_globally(self):
        """Property: every valid L1 line is resident in the L2."""
        import random

        h = make_hierarchy()
        rng = random.Random(0)
        t = 0.0
        for _ in range(800):
            t += 50.0
            core = rng.randrange(2)
            kind = STORE if rng.random() < 0.3 else LOAD
            h.access(core, kind, rng.randrange(512), t)
        for core in range(2):
            for cache in (h.l1i[core], h.l1d[core]):
                for addr, entry in cache._map.items():
                    if entry.valid:
                        assert h.l2.probe(addr) is not None, hex(addr)

    def test_dirty_l1_eviction_writes_back_to_l2(self):
        h = make_hierarchy()
        n_sets = h.l1d[0].n_sets
        a = 0x10
        h.access(0, STORE, a, 0.0)
        # Evict it from L1 with two more lines in the same L1 set.
        h.access(0, LOAD, a + n_sets, 1000.0)
        h.access(0, LOAD, a + 2 * n_sets, 2000.0)
        assert h.l1d[0].probe(a) is None
        assert h.l2.probe(a).dirty
        assert h.l1d_stats.writebacks == 1

    def test_dirty_l2_eviction_sends_writeback_message(self):
        h = make_hierarchy()
        n_sets = h.l2.n_sets
        a = 0x20
        h.access(0, STORE, a, 0.0)
        before = h.link.stats.data_messages
        t = 0.0
        for k in range(1, 6):
            t += 1000.0
            h.access(0, LOAD, a + k * n_sets, t)
        assert h.l2.probe(a) is None
        # 5 fills + 1 writeback of the dirty victim
        assert h.link.stats.data_messages == before + 5 + 1
        assert h.l2_stats.writebacks == 1


class TestCompression:
    def test_compressed_hit_pays_decompression(self):
        plain = make_hierarchy(compressed=False)
        comp = make_hierarchy(compressed=True, segments=2)
        for h in (plain, comp):
            h.access(0, LOAD, 0x100, 0.0)
            h.access(1, LOAD, 0x100, 10_000.0)  # L2 hit from the other core
        lat_plain = plain.l2.config.hit_latency
        assert comp.l2_stats.compressed_hits >= 1
        assert plain.l2_stats.compressed_hits == 0

    def test_uncompressible_lines_skip_penalty(self):
        h = make_hierarchy(compressed=True, segments=8)
        h.access(0, LOAD, 0x100, 0.0)
        h.access(1, LOAD, 0x100, 10_000.0)
        assert h.l2_stats.compressed_hits == 0

    def test_compressed_cache_holds_more_lines(self):
        n_sets_addrs = lambda h, n: [0x40 + k * h.l2.n_sets for k in range(n)]
        plain = make_hierarchy(compressed=False)
        comp = make_hierarchy(compressed=True, segments=2)
        for h in (plain, comp):
            t = 0.0
            for a in n_sets_addrs(h, 8):
                t += 1000.0
                h.access(0, LOAD, a, t)
        held_plain = sum(1 for a in n_sets_addrs(plain, 8) if plain.l2.probe(a))
        held_comp = sum(1 for a in n_sets_addrs(comp, 8) if comp.l2.probe(a))
        assert held_plain == 4
        assert held_comp == 8

    def test_link_compression_shrinks_messages(self):
        plain = make_hierarchy(link_compressed=False, segments=2)
        comp = make_hierarchy(link_compressed=True, segments=2)
        for h in (plain, comp):
            h.access(0, LOAD, 0x100, 0.0)
        assert comp.link.stats.bytes_total < plain.link.stats.bytes_total

    def test_effective_size_sampling(self):
        h = make_hierarchy(compressed=True, segments=1)
        t = 0.0
        for i in range(600):
            t += 100.0
            h.access(0, LOAD, i, t)
        assert h.compression_stats.samples >= 1


class TestPrefetching:
    def feed_stream(self, h, core=0, base=0x1000, n=8, start_t=0.0, step=1000.0):
        t = start_t
        for i in range(n):
            t += step
            h.access(core, LOAD, base + i, t)
        return t

    def test_stream_confirmation_issues_prefetches(self):
        h = make_hierarchy(prefetch=True)
        self.feed_stream(h, n=4)
        assert h.pf_stats["l2"].issued > 0
        assert h.pf_stats["l1d"].issued > 0

    def test_prefetched_lines_carry_bit_then_clear_on_use(self):
        h = make_hierarchy(prefetch=True)
        t = self.feed_stream(h, n=4)
        # The next stream addresses were prefetched into L2 with the bit set.
        prefetched = [a for a in range(0x1000, 0x1040) if (e := h.l2.probe(a)) and e.prefetch_bit]
        assert prefetched
        h.access(0, LOAD, prefetched[0], t + 100_000.0)
        assert not h.l2.probe(prefetched[0]).prefetch_bit
        assert h.l2_stats.prefetch_hits + h.l2_stats.partial_hits >= 1

    def test_prefetches_never_issued_when_disabled(self):
        h = make_hierarchy(prefetch=False)
        self.feed_stream(h, n=8)
        assert h.pf_stats["l2"].issued == 0
        assert h.dram.prefetch_requests == 0

    def test_useless_prefetch_detected_on_eviction(self):
        h = make_hierarchy(prefetch=True, adaptive=True)
        before = h.l2_adaptive.counter
        self.feed_stream(h, n=6)
        # Flood the L2 so prefetched-but-untouched lines get evicted.
        t = 1e6
        for i in range(2000):
            t += 500.0
            h.access(1, LOAD, 0x8000 + i, t)
        assert h.pf_stats["l2"].useless > 0

    def test_reset_stats_clears_counters_keeps_state(self):
        h = make_hierarchy(prefetch=True)
        self.feed_stream(h, n=6)
        assert h.l2_stats.demand_misses > 0
        h.reset_stats()
        assert h.l2_stats.demand_misses == 0
        assert h.pf_stats["l2"].issued == 0
        assert h.l2.resident_lines() > 0  # cache contents preserved

    def test_l1_prefetch_triggers_l2_state(self):
        h = make_hierarchy(prefetch=True)
        self.feed_stream(h, n=4)
        # every L1-prefetched line must be in L2 too (inclusion)
        for core in range(2):
            for addr, entry in h.l1d[core]._map.items():
                if entry.valid:
                    assert h.l2.probe(addr) is not None


class TestBankQueue:
    def test_same_bank_accesses_queue(self):
        h = make_hierarchy()
        # Two accesses to the same bank at the same instant: the second
        # waits the bank occupancy.
        a, b = 0x100, 0x100 + h.l2.config.n_banks
        lat_a, _ = h.access(0, LOAD, a, 0.0)
        lat_b, _ = h.access(1, LOAD, b, 0.0)
        assert lat_b >= lat_a  # queued behind on the bank and link
